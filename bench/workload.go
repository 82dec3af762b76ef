package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"
	"unsafe"

	"srmcoll"
)

// A workload is one closed-loop user of the simulator: a fixed list of
// cells run back to back by a single client, repeated a fixed minimum
// number of times. build generates every input from the seed; the cells
// receive only those inputs.
type workload struct {
	name  string
	why   string
	reps  int // floor on timed repetitions, so every median has at least this many samples
	build func(seed uint64, smoke bool) *instance
}

// instance is a workload with its inputs generated and its buffers
// allocated: everything a repetition needs exists before the first timed
// call into srmcoll.
type instance struct {
	cells []cell
	// inputs is the seeded send arena the sequential references were
	// computed from at build time.
	inputs *arena
	// begin resets the per-repetition accumulators extras reads.
	begin func()
	// extras returns the workload's own virtual-time metrics for the
	// repetition that just finished (srm_gain_min_pct, hidden_pct, ...).
	extras func() map[string]float64
}

// cell is one call (or one calibrated pair of calls) into the public
// srmcoll API, followed by the check of its outputs. run writes the cell's
// virtual-time result into h, the repetition digest.
type cell struct {
	name string
	run  func(h hash.Hash) cellOut
}

type cellOut struct {
	simUS   float64 // Result.Time, summed into sim_us
	events  uint64  // Result.Events, summed into sim.events
	retries int     // Stats.Retries: reliable-mode retransmissions
	fail    string  // why the cell failed; "" when it ran and verified
}

// repOut is one repetition of the whole cell list.
type repOut struct {
	wall    float64 // host seconds
	simUS   float64
	events  uint64
	retries int
	cells   int
	failed  int
	fails   []string // first few failure reasons, for the report
	digest  string
	extras  map[string]float64
}

// repetition runs every cell once, in order, one at a time. sp is nil on
// untraced repetitions; on traced ones each cell gets a span under parent.
func (in *instance) repetition(sp *spans, parent int) repOut {
	var out repOut
	h := sha256.New()
	if in.begin != nil {
		in.begin()
	}
	start := time.Now()
	for i := range in.cells {
		c := &in.cells[i]
		id := sp.begin(c.name, parent)
		co := c.run(h)
		sp.end(id)
		out.cells++
		out.simUS += co.simUS
		out.events += co.events
		out.retries += co.retries
		if co.fail != "" {
			out.failed++
			fmt.Fprintf(h, "FAIL %s\n", c.name)
			if len(out.fails) < 4 {
				out.fails = append(out.fails, c.name+": "+co.fail)
			}
		}
	}
	out.wall = time.Since(start).Seconds()
	if in.extras != nil {
		out.extras = in.extras()
		names := make([]string, 0, len(out.extras))
		for k := range out.extras {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(out.extras[k]))
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// hashResult writes the deterministic part of a Run/RunT result into the
// repetition digest: any host-only change must leave all of it identical.
func hashResult(h hash.Hash, res *srmcoll.Result) {
	hashTimes(h, res.Time, res.PerRank, res.Events)
	fmt.Fprintf(h, "%+v\n", res.Stats)
}

func hashTimes(h hash.Hash, t float64, perRank []float64, events uint64) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], math.Float64bits(t))
	binary.LittleEndian.PutUint64(b[8:], events)
	h.Write(b[:])
	if len(perRank) > 0 {
		// Float64 slices are hashed through their bytes; the digest only
		// ever compares runs on the same machine.
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&perRank[0])), 8*len(perRank)))
	}
}

// rng is splitmix64: the one source of every seeded input.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a label, so
// adding a draw to one workload never shifts another's inputs.
func newRNG(seed uint64, stream string) *rng {
	f := fnv.New64a()
	f.Write([]byte(stream))
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ f.Sum64()}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// derive returns a non-zero seed for a fault plan.
func (r *rng) derive() uint64 { return r.next() | 1 }

// f64s and u64s view a payload buffer (length a multiple of 8) as words.
func f64s(b []byte) []float64 { return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8) }
func u64s(b []byte) []uint64  { return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8) }

func errString(err error) string { return fmt.Sprintf("%T: %v", err, err) }

// arena is one allocation holding a fixed-stride buffer per rank. Cells
// of every size slice their buffers out of it, so no repetition allocates
// or zeroes payload memory.
type arena struct {
	buf    []byte
	stride int
}

func newArena(rows, stride int) *arena {
	return &arena{buf: make([]byte, rows*stride), stride: stride}
}

// row returns the first n bytes of row r, capped so an append cannot run
// into the next row.
func (a *arena) row(r, n int) []byte { return a.buf[r*a.stride : r*a.stride+n : r*a.stride+n] }

// fillInts fills b with float64 values that hold small integers
// (< 2^20). Sums of up to 2^32 of them are exact in any association
// order, so a reduction's reference does not depend on the tree shape.
func (r *rng) fillInts(b []byte) {
	v := f64s(b)
	for i := range v {
		v[i] = float64(r.next() & 0xfffff)
	}
}

// sumRows returns the elementwise float64 sum of the first n bytes of
// rows [0, rows) of a: the sequential reference of a sum-reduction.
func sumRows(a *arena, rows, n int) []byte {
	out := make([]byte, n)
	acc := f64s(out)
	for r := 0; r < rows; r++ {
		for i, v := range f64s(a.row(r, n)) {
			acc[i] += v
		}
	}
	return out
}

// Output buffers are poisoned before every cell with one word per page: a
// NaN pattern no payload or sum contains, so a collective that delivered
// nothing, or left a stale block from the previous repetition, fails
// verification (every protocol moves data in chunks of a page or more).
// Poisoning a word per page instead of clearing the buffer keeps the
// harness out of the profile.
const (
	poisonStride = 4096
	poisonWord   = 0xfff8dead0000beef
)

func poison(b []byte) {
	w := u64s(b)
	for i := 0; i < len(w); i += poisonStride / 8 {
		w[i] = poisonWord
	}
}

// matches compares an output buffer with its reference. full compares
// every byte; otherwise only the poisoned words are read, which still
// proves every page was written with the right data.
func matches(got, want []byte, full bool) bool {
	if full {
		return string(got) == string(want)
	}
	g, w := u64s(got), u64s(want)
	for i := 0; i < len(w); i += poisonStride / 8 {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// fullCheckBudget is the number of output bytes per cell compared byte
// for byte. A cell whose ranks together produce more has that many bytes'
// worth of evenly spaced buffers (and the root's) compared fully and the
// rest at the poisoned words: at 256 ranks x 512 KiB a full compare of
// every rank costs a fifth of the memory traffic of the collective
// itself, and the harness must stay under 2 % of the profile.
const fullCheckBudget = 4 << 20

// fullCheck reports whether buffer i of n, each size bytes, is one of
// those compared fully.
func fullCheck(i, n, size int) bool {
	every := (n*size + fullCheckBudget - 1) / fullCheckBudget
	// One buffer per group of `every`, at a position that walks through
	// the group so every bucket of a rank-major layout gets its turn.
	return every <= 1 || i%every == (i/every)%every
}

// hashBytes is the payload hash written into the digest for a verified
// cell: outputs equal to the reference hash like the reference.
func hashBytes(b []byte) uint64 {
	f := fnv.New64a()
	f.Write(b)
	return f.Sum64()
}

func hashPayload(h hash.Hash, sum uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], sum)
	h.Write(b[:])
}
