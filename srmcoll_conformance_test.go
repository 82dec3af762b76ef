package srmcoll

// Randomized differential conformance suite: a seeded generator draws
// cluster shapes, collectives, dtypes, operators, roots, group splits and
// blocking/non-blocking execution modes, and every collective's output
// bytes are cross-checked against a naive sequential reference implemented
// here with nothing but encoding/binary arithmetic — independent of
// internal/dtype and of the protocol code under test. The fixed corpus
// runs in go test; FuzzCollectives (srmcoll_fuzz_test.go) feeds the same
// checker from fuzz-generated bytes.
//
// Reduction values are small integers (0..15), so floating-point sums of
// any association order are exact and integer overflow wraps identically
// in the reference and the library: byte comparison is sound for every
// (dtype, op) drawn.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

type confStep struct {
	op    int // index into confOpNames
	elems int // elements per rank-block; 0 is a legal, empty message
	dt    Datatype
	rop   Op
	root  int // index into the group's member list
}

var confOpNames = []string{"barrier", "bcast", "reduce", "allreduce", "gather",
	"scatter", "allgather", "alltoall", "reducescatter", "scan", "exscan"}

type confScenario struct {
	nodes, tpn int
	impl       Impl
	split      int // 0 world, 1 contiguous halves, 2 even-odd
	mode       int // 0 blocking, 1 issue+Wait per op, 2 batched requests
	batch      int // outstanding depth in mode 2
	lifo       bool
	alg        AllreduceAlg // allreduce family (SRM only; baselines ignore it)
	steps      []confStep
}

func (sc confScenario) String() string {
	m := fmt.Sprintf("mode%d", sc.mode)
	if sc.mode == 2 {
		order := "fifo"
		if sc.lifo {
			order = "lifo"
		}
		m = fmt.Sprintf("batch%d-%s", sc.batch, order)
	}
	s := fmt.Sprintf("%dx%d-%v-split%d-%s", sc.nodes, sc.tpn, sc.impl, sc.split, m)
	if sc.alg != AllreduceAuto {
		s += fmt.Sprintf("-%v", sc.alg)
	}
	for _, st := range sc.steps {
		s += fmt.Sprintf("-%s:%d:%v:%v", confOpNames[st.op], st.elems, st.dt, st.rop)
	}
	return s
}

// confGroups returns the rank groups the scenario runs over.
func confGroups(sc confScenario, p int) [][]int {
	switch sc.split {
	case 1:
		lo, hi := []int{}, []int{}
		for r := 0; r < p; r++ {
			if r < p/2 {
				lo = append(lo, r)
			} else {
				hi = append(hi, r)
			}
		}
		return [][]int{lo, hi}
	case 2:
		ev, od := []int{}, []int{}
		for r := 0; r < p; r++ {
			if r%2 == 0 {
				ev = append(ev, r)
			} else {
				od = append(od, r)
			}
		}
		return [][]int{ev, od}
	}
	all := make([]int, p)
	for r := range all {
		all[r] = r
	}
	return [][]int{all}
}

// confInput is the deterministic input generator shared by the run body
// and the reference: n elements of dt for (step, rank), values in 0..15.
func confInput(step, rank, n int, dt Datatype) []byte {
	b := make([]byte, n*dt.Size())
	for i := 0; i < n; i++ {
		confPut(dt, b, i, int64((rank*131+step*17+i*7)%16))
	}
	return b
}

// confPut stores small-integer value v as element i of b.
func confPut(dt Datatype, b []byte, i int, v int64) {
	switch dt {
	case Float64:
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(float64(v)))
	case Float32:
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(float32(v)))
	case Int64:
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	case Int32:
		binary.LittleEndian.PutUint32(b[i*4:], uint32(int32(v)))
	case Uint8:
		b[i] = byte(v)
	}
}

// refCombine folds src into acc elementwise — the naive reference for one
// pairwise reduction, written directly on the wire encoding.
func refCombine(dt Datatype, op Op, acc, src []byte) {
	n := len(acc) / dt.Size()
	for i := 0; i < n; i++ {
		switch dt {
		case Float64, Float32:
			var a, s float64
			if dt == Float64 {
				a = math.Float64frombits(binary.LittleEndian.Uint64(acc[i*8:]))
				s = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
			} else {
				a = float64(math.Float32frombits(binary.LittleEndian.Uint32(acc[i*4:])))
				s = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:])))
			}
			switch op {
			case Sum:
				a += s
			case Prod:
				a *= s
			case Min:
				if s < a {
					a = s
				}
			case Max:
				if s > a {
					a = s
				}
			}
			if dt == Float64 {
				binary.LittleEndian.PutUint64(acc[i*8:], math.Float64bits(a))
			} else {
				binary.LittleEndian.PutUint32(acc[i*4:], math.Float32bits(float32(a)))
			}
		case Int64, Int32, Uint8:
			var a, s int64
			switch dt {
			case Int64:
				a = int64(binary.LittleEndian.Uint64(acc[i*8:]))
				s = int64(binary.LittleEndian.Uint64(src[i*8:]))
			case Int32:
				a = int64(int32(binary.LittleEndian.Uint32(acc[i*4:])))
				s = int64(int32(binary.LittleEndian.Uint32(src[i*4:])))
			case Uint8:
				a, s = int64(acc[i]), int64(src[i])
			}
			switch op {
			case Sum:
				a += s
			case Prod:
				a *= s
			case Min:
				if s < a {
					a = s
				}
			case Max:
				if s > a {
					a = s
				}
			case Band:
				a &= s
			case Bor:
				a |= s
			case Bxor:
				a ^= s
			}
			switch dt {
			case Int64:
				binary.LittleEndian.PutUint64(acc[i*8:], uint64(a))
			case Int32:
				binary.LittleEndian.PutUint32(acc[i*4:], uint32(int32(a)))
			case Uint8:
				acc[i] = byte(a)
			}
		}
	}
}

// refFold reduces the members' step inputs (n elements each) in group
// order with the naive pairwise combine.
func refFold(st confStep, si int, members []int, n int) []byte {
	acc := append([]byte(nil), confInput(si, members[0], n, st.dt)...)
	for _, r := range members[1:] {
		refCombine(st.dt, st.rop, acc, confInput(si, r, n, st.dt))
	}
	return acc
}

// confWant computes, sequentially and independently of the library, the
// expected output bytes of every (step, rank): nil where the collective
// defines no output for that rank.
func confWant(sc confScenario, p int) [][][]byte {
	want := make([][][]byte, len(sc.steps))
	for si := range sc.steps {
		want[si] = make([][]byte, p)
	}
	for _, g := range confGroups(sc, p) {
		for si, st := range sc.steps {
			root := g[st.root%len(g)]
			n, G := st.elems, len(g)
			switch confOpNames[st.op] {
			case "bcast":
				for _, r := range g {
					want[si][r] = confInput(si, root, n, st.dt)
				}
			case "reduce":
				want[si][root] = refFold(st, si, g, n)
			case "allreduce":
				acc := refFold(st, si, g, n)
				for _, r := range g {
					want[si][r] = acc
				}
			case "gather", "allgather":
				var cat []byte
				for _, r := range g {
					cat = append(cat, confInput(si, r, n, st.dt)...)
				}
				if confOpNames[st.op] == "gather" {
					want[si][root] = cat
				} else {
					for _, r := range g {
						want[si][r] = cat
					}
				}
			case "scatter":
				send := confInput(si, root, n*G, st.dt)
				blk := n * st.dt.Size()
				for gi, r := range g {
					want[si][r] = send[gi*blk : (gi+1)*blk]
				}
			case "alltoall":
				blk := n * st.dt.Size()
				for gi, r := range g {
					var out []byte
					for _, j := range g {
						src := confInput(si, j, n*G, st.dt)
						out = append(out, src[gi*blk:(gi+1)*blk]...)
					}
					want[si][r] = out
				}
			case "reducescatter":
				acc := refFold(st, si, g, n*G)
				blk := n * st.dt.Size()
				for gi, r := range g {
					want[si][r] = acc[gi*blk : (gi+1)*blk]
				}
			case "scan":
				for gi, r := range g {
					want[si][r] = refFold(st, si, g[:gi+1], n)
				}
			case "exscan":
				for gi, r := range g {
					if gi == 0 {
						want[si][r] = make([]byte, n*st.dt.Size())
					} else {
						want[si][r] = refFold(st, si, g[:gi], n)
					}
				}
			}
		}
	}
	return want
}

// runConformance executes the scenario and returns the run result and the
// observed per-(step, rank) output bytes.
func runConformance(t *testing.T, sc confScenario) (*Result, [][][]byte) {
	t.Helper()
	cl := mustCluster(t, sc.nodes, sc.tpn)
	cl.SetVariant(Variant{Allreduce: sc.alg})
	p := sc.nodes * sc.tpn
	groups := confGroups(sc, p)
	outs := make([][][]byte, len(sc.steps))
	for si := range outs {
		outs[si] = make([][]byte, p)
	}
	res, err := cl.Run(sc.impl, func(c *Comm) {
		var g []int
		for _, cand := range groups {
			for _, r := range cand {
				if r == c.Rank() {
					g = cand
				}
			}
		}
		gi := 0
		for i, r := range g {
			if r == c.Rank() {
				gi = i
			}
		}
		comm := c
		if sc.split != 0 {
			comm = c.Sub(g)
		}
		var pend []*Request
		flush := func() {
			if sc.lifo {
				for i := len(pend) - 1; i >= 0; i-- {
					pend[i].Wait()
				}
			} else {
				for _, r := range pend {
					r.Wait()
				}
			}
			pend = pend[:0]
		}
		issue := func(r *Request) {
			switch sc.mode {
			case 1:
				r.Wait()
			default:
				pend = append(pend, r)
				if len(pend) >= sc.batch {
					flush()
				}
			}
		}
		for si, st := range sc.steps {
			root := g[st.root%len(g)]
			n, G := st.elems, len(g)
			blk := n * st.dt.Size()
			nb := sc.mode != 0
			switch confOpNames[st.op] {
			case "barrier":
				if nb {
					issue(comm.IBarrier())
				} else {
					comm.Barrier()
				}
			case "bcast":
				buf := confInput(si, c.Rank(), n, st.dt) // non-roots hold junk to overwrite
				if nb {
					issue(comm.IBcast(buf, root))
				} else {
					comm.Bcast(buf, root)
				}
				outs[si][c.Rank()] = buf
			case "reduce":
				send := confInput(si, c.Rank(), n, st.dt)
				var recv []byte
				if c.Rank() == root {
					recv = make([]byte, blk)
				}
				if nb {
					issue(comm.IReduce(send, recv, st.dt, st.rop, root))
				} else {
					comm.Reduce(send, recv, st.dt, st.rop, root)
				}
				outs[si][c.Rank()] = recv
			case "allreduce":
				send, recv := confInput(si, c.Rank(), n, st.dt), make([]byte, blk)
				if nb {
					issue(comm.IAllreduce(send, recv, st.dt, st.rop))
				} else {
					comm.Allreduce(send, recv, st.dt, st.rop)
				}
				outs[si][c.Rank()] = recv
			case "gather":
				send := confInput(si, c.Rank(), n, st.dt)
				var recv []byte
				if c.Rank() == root {
					recv = make([]byte, blk*G)
				}
				if nb {
					issue(comm.IGather(send, recv, root))
				} else {
					comm.Gather(send, recv, root)
				}
				outs[si][c.Rank()] = recv
			case "scatter":
				var send []byte
				if c.Rank() == root {
					send = confInput(si, root, n*G, st.dt)
				}
				recv := make([]byte, blk)
				if nb {
					issue(comm.IScatter(send, recv, root))
				} else {
					comm.Scatter(send, recv, root)
				}
				outs[si][c.Rank()] = recv
			case "allgather":
				send, recv := confInput(si, c.Rank(), n, st.dt), make([]byte, blk*G)
				if nb {
					issue(comm.IAllgather(send, recv))
				} else {
					comm.Allgather(send, recv)
				}
				outs[si][c.Rank()] = recv
			case "alltoall":
				send, recv := confInput(si, c.Rank(), n*G, st.dt), make([]byte, blk*G)
				if nb {
					issue(comm.IAlltoall(send, recv))
				} else {
					comm.Alltoall(send, recv)
				}
				outs[si][c.Rank()] = recv
			case "reducescatter":
				send, recv := confInput(si, c.Rank(), n*G, st.dt), make([]byte, blk)
				if nb {
					issue(comm.IReduceScatter(send, recv, st.dt, st.rop))
				} else {
					comm.ReduceScatter(send, recv, st.dt, st.rop)
				}
				outs[si][c.Rank()] = recv
			case "scan":
				send, recv := confInput(si, c.Rank(), n, st.dt), make([]byte, blk)
				if nb {
					issue(comm.IScan(send, recv, st.dt, st.rop))
				} else {
					comm.Scan(send, recv, st.dt, st.rop)
				}
				outs[si][c.Rank()] = recv
			case "exscan":
				send, recv := confInput(si, c.Rank(), n, st.dt), make([]byte, blk)
				if nb {
					issue(comm.IExscan(send, recv, st.dt, st.rop))
				} else {
					comm.Exscan(send, recv, st.dt, st.rop)
				}
				outs[si][c.Rank()] = recv
			}
			_ = gi
		}
		flush()
	})
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	return res, outs
}

// checkScenario runs the scenario and compares every output byte against
// the sequential reference.
func checkScenario(t *testing.T, sc confScenario) *Result {
	t.Helper()
	p := sc.nodes * sc.tpn
	res, outs := runConformance(t, sc)
	want := confWant(sc, p)
	for si := range sc.steps {
		for r := 0; r < p; r++ {
			if !bytes.Equal(outs[si][r], want[si][r]) {
				t.Errorf("%s: step %d (%s) rank %d: got % x, want % x",
					sc, si, confOpNames[sc.steps[si].op], r, outs[si][r], want[si][r])
			}
		}
	}
	return res
}

// genScenario draws one bounded scenario from the seeded source.
func genScenario(rng *rand.Rand) confScenario {
	sc := confScenario{
		nodes: 1 + rng.Intn(4),
		tpn:   1 + rng.Intn(4),
		impl:  []Impl{SRM, SRM, IBMMPI, MPICHMPI}[rng.Intn(4)],
		mode:  rng.Intn(3),
		batch: 2 + rng.Intn(3),
		lifo:  rng.Intn(2) == 1,
	}
	for sc.nodes*sc.tpn > 16 {
		sc.tpn--
	}
	if sc.nodes*sc.tpn >= 2 {
		sc.split = rng.Intn(3)
	}
	steps := 1 + rng.Intn(4)
	for i := 0; i < steps; i++ {
		st := confStep{
			op:    rng.Intn(len(confOpNames)),
			elems: 1 + rng.Intn(48),
			dt:    []Datatype{Float64, Float32, Int64, Int32, Uint8}[rng.Intn(5)],
			root:  rng.Intn(16),
		}
		switch st.dt {
		case Float64, Float32:
			st.rop = []Op{Sum, Min, Max}[rng.Intn(3)]
		default:
			st.rop = []Op{Sum, Prod, Min, Max, Band, Bor, Bxor}[rng.Intn(7)]
		}
		sc.steps = append(sc.steps, st)
	}
	// Drawn after the step list so the pre-existing corpus keeps its exact
	// shapes and schedules; the algorithm draw only layers on top.
	sc.alg = []AllreduceAlg{AllreduceAuto, AllreduceRing,
		AllreduceRHD, AllreduceDualRoot}[rng.Intn(4)]
	// Likewise layered on top: one scenario in four empties one of its
	// steps, so every collective meets a zero-byte message somewhere in the
	// corpus (control flow must still run; see core's chunks).
	if rng.Intn(4) == 0 {
		sc.steps[rng.Intn(len(sc.steps))].elems = 0
	}
	return sc
}

// TestConformanceCorpus cross-checks a fixed seeded corpus of scenarios
// against the sequential reference, and reruns each scenario to pin
// bit-determinism of the virtual clock and counters.
func TestConformanceCorpus(t *testing.T) {
	const seeds = 48
	for seed := int64(0); seed < seeds; seed++ {
		sc := genScenario(rand.New(rand.NewSource(seed)))
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if a, b := pinOf(checkScenario(t, sc)), pinOf(checkScenario(t, sc)); a != b {
				t.Errorf("%s: rerun differs: pins %s and %s", sc, a, b)
			}
		})
	}
}
