// Package bufpool provides size-classed byte-buffer pooling for payload
// memory inside one simulation: transient copies (put payload snapshots,
// eager-send copies) and the slot and staging buffers of a collective
// operation. A pool belongs to a single sim.Env and is therefore
// single-threaded by construction — the DES runs one process at a time — so
// there is no locking and recycling order is deterministic.
//
// Determinism argument: memory from Get is never cleared, so its users write
// every byte before anything reads it — a snapshot is overwritten with
// exactly n payload bytes, a protocol slot is filled by the copy, put or
// combine that precedes the flag or counter its reader waits on — and
// readers only read those bytes (len, not cap). Stale bytes are unreachable,
// so reusing a buffer cannot change any simulated outcome — only the number
// of host allocations. The Poison hook turns a violation into a failed
// payload check.
package bufpool

import "math/bits"

const (
	// minClass is the smallest pooled class; tiny control payloads (flag
	// words, header words) round up to it.
	minClass = 64
	// maxClass bounds pooling at the largest message the experiment grid
	// uses (8 MB). Larger requests are allocated directly and dropped on
	// Put rather than retained.
	maxClass = 8 << 20
)

// Pool recycles byte slices in power-of-two size classes. The zero value is
// not usable; call New.
type Pool struct {
	classes [][][]byte // per-class free lists; index by classIndex
	gets    uint64
	hits    uint64
	fresh   int64 // bytes Get had to take from the allocator
	poison  bool
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{classes: make([][][]byte, classIndex(maxClass)+1), poison: poison}
}

// poison is a test hook: pools created while it is set fill every buffer
// they hand out, and every buffer they take back, with poisonByte. A user of
// the pool that reads a byte it did not write, or reads a buffer it has
// returned, then computes on garbage and fails its payload check instead of
// passing on whatever the memory happened to hold.
var poison bool

const poisonByte = 0xA5

// Poison switches the hook for pools created from now on. Tests only; it is
// not safe to call while simulations run on other goroutines.
func Poison(on bool) { poison = on }

func (p *Pool) taint(buf []byte) {
	if p.poison {
		for i := range buf {
			buf[i] = poisonByte
		}
	}
}

// classIndex maps a size to its class slot: ceil(log2(max(size, minClass)))
// minus log2(minClass).
func classIndex(n int) int {
	if n <= minClass {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(uint(minClass-1))
}

// classSize returns the capacity of buffers in class i.
func classSize(i int) int { return minClass << i }

// Get returns a slice of length n backed by a pooled (or fresh) buffer of
// n's size class. Contents are unspecified; callers must overwrite all n
// bytes before anything reads the slice. n > 8 MB falls back to a plain
// allocation that will not be retained.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	p.gets++
	var buf []byte
	if n > maxClass {
		buf = make([]byte, n)
		p.fresh += int64(n)
	} else if i := classIndex(n); len(p.classes[i]) > 0 {
		list := p.classes[i]
		buf = list[len(list)-1][:n]
		list[len(list)-1] = nil
		p.classes[i] = list[:len(list)-1]
		p.hits++
	} else {
		buf = make([]byte, n, classSize(i))
		p.fresh += int64(classSize(i))
	}
	p.taint(buf)
	return buf
}

// Put returns a buffer obtained from Get to its free list. The caller must
// not retain any reference; nil and oversize buffers are dropped.
func (p *Pool) Put(buf []byte) {
	if buf == nil {
		return
	}
	c := cap(buf)
	if c < minClass || c > maxClass {
		return
	}
	i := classIndex(c)
	if classSize(i) != c {
		// Not one of ours (e.g. a caller-provided slice); never pool a
		// buffer whose capacity is not an exact class size, as handing it
		// out at full class length would over-run it.
		return
	}
	p.taint(buf[:c])
	p.classes[i] = append(p.classes[i], buf[:c])
}

// Stats reports total Get calls and how many were served from a free list.
func (p *Pool) Stats() (gets, hits uint64) { return p.gets, p.hits }

// Fresh reports how many bytes the pool has taken from the allocator so far:
// the memory that becomes garbage when the pool's simulation ends.
func (p *Pool) Fresh() int64 { return p.fresh }
