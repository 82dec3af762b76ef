package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
)

// harness runs body on every rank of a fresh simulated cluster and returns
// the machine (for stats) and each rank's completion time.
func harness(t testing.TB, nodes, tpn int, opt Options,
	body func(s *SRM, p *sim.Proc, rank int)) (*machine.Machine, []sim.Time) {
	t.Helper()
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(nodes, tpn))
	s := New(m, rma.NewDomain(m), opt)
	done := make([]sim.Time, m.P())
	for r := 0; r < m.P(); r++ {
		r := r
		env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			body(s, p, r)
			done[r] = p.Now()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	return m, done
}

// block runs a group operation from a process the way the facade does: its
// task form started on the process's own task with p.Resume() as kont, and
// the process parked until that has run.
func block(p *sim.Proc, start func(t *sim.Task, kont sim.K)) {
	start(&p.Task, p.Resume())
	p.Park()
}

// pattern fills n bytes with a root-dependent pattern.
func pattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + seed*17 + 5)
	}
	return b
}

func TestBarrierCompletes(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {1, 4}, {2, 1}, {2, 4}, {3, 5}, {4, 16}} {
		_, done := harness(t, shape[0], shape[1], Options{}, func(s *SRM, p *sim.Proc, rank int) {
			s.Barrier(p, rank)
		})
		for r, d := range done {
			if d <= 0 && len(done) > 1 {
				t.Errorf("shape %v: rank %d finished at %v", shape, r, d)
			}
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// No rank may leave the barrier before the last rank entered it.
	nodes, tpn := 4, 4
	P := nodes * tpn
	enter := make([]sim.Time, P)
	_, exit := harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
		p.Sleep(sim.Time(rank) * 7) // staggered arrival
		enter[rank] = p.Now()
		s.Barrier(p, rank)
	})
	lastEnter := enter[0]
	for _, e := range enter {
		if e > lastEnter {
			lastEnter = e
		}
	}
	for r, x := range exit {
		if x < lastEnter {
			t.Errorf("rank %d left the barrier at %v before last arrival %v", r, x, lastEnter)
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	var last sim.Time
	_, done := harness(t, 2, 4, Options{}, func(s *SRM, p *sim.Proc, rank int) {
		for i := 0; i < 5; i++ {
			s.Barrier(p, rank)
		}
	})
	for _, d := range done {
		if d > last {
			last = d
		}
	}
	if last <= 0 {
		t.Fatal("no time elapsed across 5 barriers")
	}
}

func checkBcast(t *testing.T, nodes, tpn, size, root int, opt Options) {
	t.Helper()
	want := pattern(size, root)
	P := nodes * tpn
	bufs := make([][]byte, P)
	for r := range bufs {
		if r == root {
			bufs[r] = append([]byte(nil), want...)
		} else {
			bufs[r] = make([]byte, size)
		}
	}
	harness(t, nodes, tpn, opt, func(s *SRM, p *sim.Proc, rank int) {
		s.Bcast(p, rank, bufs[rank], root)
	})
	for r := range bufs {
		if !bytes.Equal(bufs[r], want) {
			t.Fatalf("nodes=%d tpn=%d size=%d root=%d: rank %d corrupted (first bytes %v, want %v)",
				nodes, tpn, size, root, r, head(bufs[r]), head(want))
		}
	}
}

func head(b []byte) []byte {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}

func TestBcastSizesAndShapes(t *testing.T) {
	sizes := []int{0, 1, 8, 1024, 4096, 8192, 12 << 10, 32 << 10, 64 << 10, 100 << 10, 256 << 10}
	for _, shape := range [][2]int{{1, 4}, {2, 2}, {2, 8}, {4, 4}} {
		for _, size := range sizes {
			checkBcast(t, shape[0], shape[1], size, 0, Options{})
		}
	}
}

func TestBcastArbitraryRoot(t *testing.T) {
	// Root as master of a non-zero node, and as a non-master task.
	for _, root := range []int{0, 3, 4, 7, 10, 15} {
		checkBcast(t, 4, 4, 4096, root, Options{})
		checkBcast(t, 4, 4, 128<<10, root, Options{})
	}
}

func TestBcastSingleNode(t *testing.T) {
	for _, size := range []int{8, 64 << 10, 256 << 10} {
		checkBcast(t, 1, 8, size, 3, Options{})
	}
}

func TestBcastSingleTaskPerNode(t *testing.T) {
	for _, size := range []int{8, 16 << 10, 256 << 10} {
		checkBcast(t, 4, 1, size, 2, Options{})
	}
}

func TestBcastTreeVariants(t *testing.T) {
	for _, k := range []tree.Kind{tree.Binomial, tree.Binary, tree.Fibonacci} {
		checkBcast(t, 4, 4, 16<<10, 0, Options{InterTree: k})
	}
}

func TestBcastTreeSMP(t *testing.T) {
	for _, size := range []int{8, 12 << 10, 200 << 10} {
		checkBcast(t, 2, 8, size, 0, Options{TreeSMPBcst: true})
	}
}

func TestBcastFlatSMPFasterThanTree(t *testing.T) {
	// §2.2: the flat two-buffer SMP broadcast beats the tree-based ones.
	run := func(opt Options) sim.Time {
		buf := pattern(32<<10, 0)
		bufs := make([][]byte, 16)
		for r := range bufs {
			bufs[r] = make([]byte, len(buf))
		}
		copy(bufs[0], buf)
		_, done := harness(t, 1, 16, opt, func(s *SRM, p *sim.Proc, rank int) {
			s.Bcast(p, rank, bufs[rank], 0)
		})
		var last sim.Time
		for _, d := range done {
			if d > last {
				last = d
			}
		}
		return last
	}
	flat, treed := run(Options{}), run(Options{TreeSMPBcst: true})
	if flat >= treed {
		t.Errorf("flat SMP bcast (%v) should beat tree-based (%v)", flat, treed)
	}
}

func TestBcastSpinNoYieldStillCorrect(t *testing.T) {
	// Correctness must not depend on the yield policy (only performance).
	env := sim.NewEnv()
	cfg := machine.ColonySP(2, 4)
	cfg.SpinYield = false
	m := machine.New(env, cfg)
	s := New(m, rma.NewDomain(m), Options{})
	want := pattern(4096, 1)
	bufs := make([][]byte, m.P())
	for r := range bufs {
		bufs[r] = make([]byte, len(want))
	}
	copy(bufs[0], want)
	for r := 0; r < m.P(); r++ {
		r := r
		env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) { s.Bcast(p, r, bufs[r], 0) })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for r := range bufs {
		if !bytes.Equal(bufs[r], want) {
			t.Fatalf("rank %d corrupted without yield", r)
		}
	}
}

// sumRef computes the elementwise float64 sum of all ranks' vectors.
func sumRef(vecs [][]float64) []float64 {
	out := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		for i, x := range v {
			out[i] += x
		}
	}
	return out
}

func checkReduce(t *testing.T, nodes, tpn, elems, root int, opt Options) {
	t.Helper()
	P := nodes * tpn
	vecs := make([][]float64, P)
	sends := make([][]byte, P)
	for r := range vecs {
		vecs[r] = make([]float64, elems)
		for i := range vecs[r] {
			vecs[r][i] = float64((r+1)*(i%97) - 3*r) // integers: exact fp sums
		}
		sends[r] = dtype.Float64Bytes(vecs[r])
	}
	recv := make([]byte, elems*8)
	harness(t, nodes, tpn, opt, func(s *SRM, p *sim.Proc, rank int) {
		var rb []byte
		if rank == root {
			rb = recv
		}
		s.Reduce(p, rank, sends[rank], rb, dtype.Float64, dtype.Sum, root)
	})
	got := dtype.Float64s(recv)
	want := sumRef(vecs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nodes=%d tpn=%d elems=%d root=%d: element %d = %v, want %v",
				nodes, tpn, elems, root, i, got[i], want[i])
		}
	}
	// The send buffers must be untouched.
	for r := range sends {
		if !bytes.Equal(sends[r], dtype.Float64Bytes(vecs[r])) {
			t.Fatalf("rank %d send buffer modified", r)
		}
	}
}

func TestReduceSizesAndShapes(t *testing.T) {
	for _, shape := range [][2]int{{1, 4}, {1, 8}, {2, 2}, {2, 8}, {4, 4}} {
		for _, elems := range []int{1, 16, 512, 4096, 12000, 40000} {
			checkReduce(t, shape[0], shape[1], elems, 0, Options{})
		}
	}
}

func TestReduceArbitraryRoot(t *testing.T) {
	for _, root := range []int{0, 1, 5, 12, 15} {
		checkReduce(t, 4, 4, 2048, root, Options{})
	}
}

func TestReduceSingleRank(t *testing.T) {
	checkReduce(t, 1, 1, 100, 0, Options{})
}

func TestReduceSingleTaskPerNode(t *testing.T) {
	checkReduce(t, 4, 1, 5000, 1, Options{})
	checkReduce(t, 5, 1, 30000, 3, Options{})
}

func TestReduceNonPowerOfTwo(t *testing.T) {
	checkReduce(t, 3, 5, 2048, 7, Options{})
}

func TestReduceMinMaxInt64(t *testing.T) {
	const P = 8
	sends := make([][]byte, P)
	for r := 0; r < P; r++ {
		sends[r] = dtype.Int64Bytes([]int64{int64(r) - 3, int64(10 - r), 42})
	}
	recvMin := make([]byte, 24)
	harness(t, 2, 4, Options{}, func(s *SRM, p *sim.Proc, rank int) {
		var rb []byte
		if rank == 0 {
			rb = recvMin
		}
		s.Reduce(p, rank, sends[rank], rb, dtype.Int64, dtype.Min, 0)
	})
	if got := dtype.Int64s(recvMin); got[0] != -3 || got[1] != 3 || got[2] != 42 {
		t.Fatalf("min = %v", got)
	}
}

func TestReduceFig2CopyCounts(t *testing.T) {
	// Figure 2: SMP reduce on 8 tasks needs exactly 4 memory copies —
	// only the lowest tree level moves data; the rest is operator
	// execution in place.
	elems := 1024
	sends := make([][]byte, 8)
	for r := range sends {
		sends[r] = dtype.Float64Bytes(make([]float64, elems))
	}
	recv := make([]byte, elems*8)
	m, _ := harness(t, 1, 8, Options{}, func(s *SRM, p *sim.Proc, rank int) {
		var rb []byte
		if rank == 0 {
			rb = recv
		}
		s.Reduce(p, rank, sends[rank], rb, dtype.Float64, dtype.Sum, 0)
	})
	if m.Stats.ShmCopies != 4 {
		t.Errorf("shm copies = %d, want 4 (Figure 2)", m.Stats.ShmCopies)
	}
	// Seven combines: one per non-root task.
	if m.Stats.ReduceOps != 7 {
		t.Errorf("combines = %d, want 7", m.Stats.ReduceOps)
	}
}

func TestBcastSmallDirectFromSharedBuffer(t *testing.T) {
	// §2.4: on a non-root node the small-message SMP broadcast reads the
	// shared receive buffer directly — tpn copies on the non-root node
	// (master + workers), 1 + (tpn-1) staging copies on the root node.
	nodes, tpn, size := 2, 4, 4096
	checkBcast(t, nodes, tpn, size, 0, Options{}) // correctness first
	want := pattern(size, 0)
	bufs := make([][]byte, nodes*tpn)
	for r := range bufs {
		bufs[r] = make([]byte, size)
	}
	copy(bufs[0], want)
	m, _ := harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
		s.Bcast(p, rank, bufs[rank], 0)
	})
	// Root node: 1 copy-in + 3 copy-outs. Non-root node: master's own copy
	// + 3 worker copies, all straight from the shared receive buffer.
	if m.Stats.ShmCopies != 8 {
		t.Errorf("shm copies = %d, want 8", m.Stats.ShmCopies)
	}
	// One data put; the zero-byte free ack is elided because no later
	// chunk will reuse the buffer in a single-chunk broadcast.
	if m.Stats.Puts != 1 {
		t.Errorf("puts = %d, want 1", m.Stats.Puts)
	}
}

func checkAllreduce(t *testing.T, nodes, tpn, elems int, opt Options) {
	t.Helper()
	P := nodes * tpn
	vecs := make([][]float64, P)
	sends := make([][]byte, P)
	recvs := make([][]byte, P)
	for r := range vecs {
		vecs[r] = make([]float64, elems)
		for i := range vecs[r] {
			vecs[r][i] = float64((r+2)*(i%53) - r)
		}
		sends[r] = dtype.Float64Bytes(vecs[r])
		recvs[r] = make([]byte, elems*8)
	}
	harness(t, nodes, tpn, opt, func(s *SRM, p *sim.Proc, rank int) {
		s.Allreduce(p, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum)
	})
	want := sumRef(vecs)
	for r := range recvs {
		got := dtype.Float64s(recvs[r])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nodes=%d tpn=%d elems=%d: rank %d element %d = %v, want %v",
					nodes, tpn, elems, r, i, got[i], want[i])
			}
		}
	}
}

func TestAllreduceSmall(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {2, 8}, {4, 4}} {
		for _, elems := range []int{1, 100, 2048} { // up to 16 KB
			checkAllreduce(t, shape[0], shape[1], elems, Options{})
		}
	}
}

func TestAllreduceLarge(t *testing.T) {
	for _, shape := range [][2]int{{1, 4}, {2, 4}, {4, 2}} {
		for _, elems := range []int{3000, 12000, 40000} { // 24 KB .. 320 KB
			checkAllreduce(t, shape[0], shape[1], elems, Options{})
		}
	}
}

func TestAllreduceNonPowerOfTwoNodes(t *testing.T) {
	// Exercises the fold-in/fold-out recursive-doubling path.
	for _, nodes := range []int{3, 5, 6, 7} {
		checkAllreduce(t, nodes, 2, 512, Options{})
		checkAllreduce(t, nodes, 2, 8000, Options{})
	}
}

func TestAllreduceZeroBytes(t *testing.T) {
	checkAllreduce(t, 2, 2, 0, Options{})
}

func TestSPMDSequenceOfDifferentOps(t *testing.T) {
	// A realistic call sequence: bcast, compute, allreduce, barrier.
	nodes, tpn, elems := 2, 4, 256
	P := nodes * tpn
	params := make([][]byte, P)
	sends := make([][]byte, P)
	recvs := make([][]byte, P)
	want := pattern(64, 0)
	for r := 0; r < P; r++ {
		params[r] = make([]byte, 64)
		sends[r] = dtype.Float64Bytes(make([]float64, elems))
		recvs[r] = make([]byte, elems*8)
	}
	copy(params[0], want)
	harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
		s.Bcast(p, rank, params[rank], 0)
		p.Sleep(sim.Time(rank % 3))
		s.Allreduce(p, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum)
		s.Barrier(p, rank)
	})
	for r := 0; r < P; r++ {
		if !bytes.Equal(params[r], want) {
			t.Fatalf("rank %d: bcast result corrupted in mixed sequence", r)
		}
	}
}

func TestOpMismatchPanics(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	s := New(m, rma.NewDomain(m), Options{})
	env.Spawn("rank0", func(p *sim.Proc) { s.Bcast(p, 0, make([]byte, 8), 0) })
	env.Spawn("rank1", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("mismatched Bcast size did not panic")
			}
		}()
		s.Bcast(p, 1, make([]byte, 16), 0)
	})
	_ = env.Run() // rank0 may legitimately deadlock after rank1 panics
}

func TestReduceInvalidOpPanics(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	s := New(m, rma.NewDomain(m), Options{})
	env.Spawn("rank0", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("bitwise op on float did not panic")
			}
		}()
		s.Reduce(p, 0, make([]byte, 8), make([]byte, 8), dtype.Float64, dtype.Band, 0)
	})
	_ = env.Run()
}

func TestDeterministicTiming(t *testing.T) {
	run := func() sim.Time {
		bufs := make([][]byte, 8)
		for r := range bufs {
			bufs[r] = make([]byte, 32<<10)
		}
		_, done := harness(t, 2, 4, Options{}, func(s *SRM, p *sim.Proc, rank int) {
			s.Bcast(p, rank, bufs[rank], 0)
			s.Barrier(p, rank)
		})
		var last sim.Time
		for _, d := range done {
			if d > last {
				last = d
			}
		}
		return last
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic timing: %v vs %v", a, b)
	}
}

// Property: broadcast delivers the root's bytes for random shapes, sizes
// and roots.
func TestPropBcast(t *testing.T) {
	f := func(nRaw, tRaw, rootRaw uint8, szRaw uint32) bool {
		nodes := int(nRaw)%3 + 1
		tpn := int(tRaw)%4 + 1
		size := int(szRaw) % (96 << 10)
		root := int(rootRaw) % (nodes * tpn)
		want := pattern(size, root)
		bufs := make([][]byte, nodes*tpn)
		for r := range bufs {
			bufs[r] = make([]byte, size)
		}
		copy(bufs[root], want)
		harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
			s.Bcast(p, rank, bufs[rank], root)
		})
		for r := range bufs {
			if !bytes.Equal(bufs[r], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: reduce(sum of int-valued float64) matches the reference for
// random shapes and roots.
func TestPropReduceSum(t *testing.T) {
	f := func(nRaw, tRaw, rootRaw uint8, eRaw uint16) bool {
		nodes := int(nRaw)%3 + 1
		tpn := int(tRaw)%4 + 1
		elems := int(eRaw)%3000 + 1
		root := int(rootRaw) % (nodes * tpn)
		P := nodes * tpn
		vecs := make([][]float64, P)
		sends := make([][]byte, P)
		for r := range vecs {
			vecs[r] = make([]float64, elems)
			for i := range vecs[r] {
				vecs[r][i] = float64((r*i)%11 - 5)
			}
			sends[r] = dtype.Float64Bytes(vecs[r])
		}
		recv := make([]byte, elems*8)
		harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
			var rb []byte
			if rank == root {
				rb = recv
			}
			s.Reduce(p, rank, sends[rank], rb, dtype.Float64, dtype.Sum, root)
		})
		got := dtype.Float64s(recv)
		want := sumRef(vecs)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: allreduce equals reduce-to-every-rank for random shapes.
func TestPropAllreduce(t *testing.T) {
	f := func(nRaw, tRaw uint8, eRaw uint16) bool {
		nodes := int(nRaw)%4 + 1
		tpn := int(tRaw)%3 + 1
		elems := int(eRaw)%4000 + 1
		P := nodes * tpn
		vecs := make([][]float64, P)
		sends := make([][]byte, P)
		recvs := make([][]byte, P)
		for r := range vecs {
			vecs[r] = make([]float64, elems)
			for i := range vecs[r] {
				vecs[r][i] = float64((r+i)%13 - 6)
			}
			sends[r] = dtype.Float64Bytes(vecs[r])
			recvs[r] = make([]byte, elems*8)
		}
		harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
			s.Allreduce(p, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum)
		})
		want := sumRef(vecs)
		for r := range recvs {
			got := dtype.Float64s(recvs[r])
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestChunks(t *testing.T) {
	if got := chunks(0, 100); got.len() != 1 || got.at(0).n != 0 {
		t.Fatalf("chunks(0) = %v", got)
	}
	got := chunks(250, 100)
	if got.len() != 3 || got.at(2).off != 200 || got.at(2).n != 50 {
		t.Fatalf("chunks(250,100) = %v", got)
	}
	total := 0
	for k := range got.len() {
		total += got.at(k).n
	}
	if total != 250 {
		t.Fatalf("chunks cover %d bytes", total)
	}
}

func TestChunksPanicsOnBadChunk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("chunks(_,0) did not panic")
		}
	}()
	chunks(10, 0)
}

// Staggered arrivals: collectives must be correct regardless of which rank
// reaches the call first (§4 notes SRM's flag scheme tolerates late
// arrivals better than barrier-synchronized schemes).
func TestStaggeredArrivals(t *testing.T) {
	delays := []struct {
		name  string
		delay func(rank int) sim.Time
	}{
		{"late-root", func(r int) sim.Time {
			if r == 0 {
				return 500
			}
			return 0
		}},
		{"late-masters", func(r int) sim.Time {
			if r%4 == 0 {
				return 300
			}
			return 0
		}},
		{"reverse-stagger", func(r int) sim.Time { return sim.Time(16-r) * 40 }},
	}
	for _, d := range delays {
		want := pattern(12<<10, 0)
		bufs := make([][]byte, 16)
		recvs := make([][]byte, 16)
		for r := range bufs {
			bufs[r] = make([]byte, len(want))
			recvs[r] = make([]byte, 64)
		}
		copy(bufs[0], want)
		_, _ = d, bufs
		harness(t, 4, 4, Options{}, func(s *SRM, p *sim.Proc, rank int) {
			p.Sleep(d.delay(rank))
			s.Bcast(p, rank, bufs[rank], 0)
			s.Allreduce(p, rank, make([]byte, 64), recvs[rank], dtype.Float64, dtype.Sum)
			s.Barrier(p, rank)
		})
		for r := range bufs {
			if !bytes.Equal(bufs[r], want) {
				t.Fatalf("%s: rank %d bcast corrupted", d.name, r)
			}
		}
	}
}

// Property: any per-rank arrival jitter still yields correct reduce results.
func TestPropJitteredReduce(t *testing.T) {
	f := func(jit []uint8) bool {
		nodes, tpn, elems := 2, 4, 700
		P := nodes * tpn
		vecs := make([][]float64, P)
		sends := make([][]byte, P)
		for r := range vecs {
			vecs[r] = make([]float64, elems)
			for i := range vecs[r] {
				vecs[r][i] = float64((r*7+i)%23 - 11)
			}
			sends[r] = dtype.Float64Bytes(vecs[r])
		}
		recv := make([]byte, elems*8)
		harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
			if len(jit) > 0 {
				p.Sleep(sim.Time(jit[rank%len(jit)]))
			}
			var rb []byte
			if rank == 3 {
				rb = recv
			}
			s.Reduce(p, rank, sends[rank], rb, dtype.Float64, dtype.Sum, 3)
		})
		got := dtype.Float64s(recv)
		want := sumRef(vecs)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Back-to-back heterogeneous operations keep their shared state separate
// even when pipelining overlaps consecutive calls.
func TestBackToBackOpsStress(t *testing.T) {
	nodes, tpn := 2, 4
	P := nodes * tpn
	const rounds = 6
	bufs := make([][]byte, P)
	recvs := make([][]byte, P)
	for r := 0; r < P; r++ {
		bufs[r] = make([]byte, 4096)
		recvs[r] = make([]byte, 256)
	}
	harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
		for i := 0; i < rounds; i++ {
			root := i % P
			if rank == root {
				copy(bufs[rank], pattern(4096, i))
			}
			s.Bcast(p, rank, bufs[rank], root)
			s.Allreduce(p, rank, make([]byte, 256), recvs[rank], dtype.Float64, dtype.Sum)
		}
	})
	want := pattern(4096, rounds-1)
	for r := 0; r < P; r++ {
		if !bytes.Equal(bufs[r], want) {
			t.Fatalf("rank %d: last-round bcast corrupted", r)
		}
	}
}

func TestBcastBarrierSMPVariantCorrect(t *testing.T) {
	for _, size := range []int{8, 12 << 10, 200 << 10} {
		checkBcast(t, 2, 8, size, 0, Options{BarrierSMPBcst: true})
	}
	checkAllreduce(t, 2, 4, 500, Options{BarrierSMPBcst: true})
}

// §4: the flag-based SRM protocol is "less susceptible to the processor
// late arrivals" than a barrier-arbitrated design. With one straggler, the
// flag protocol lets punctual tasks finish earlier.
func TestFlagsBeatBarrierArbitrationUnderLateArrival(t *testing.T) {
	run := func(opt Options) sim.Time {
		bufs := make([][]byte, 16)
		for r := range bufs {
			bufs[r] = make([]byte, 32<<10)
		}
		_, done := harness(t, 1, 16, opt, func(s *SRM, p *sim.Proc, rank int) {
			if rank == 7 {
				p.Sleep(400) // straggler
			}
			s.Bcast(p, rank, bufs[rank], 0)
		})
		// Median punctual-task completion: take rank 3's.
		return done[3]
	}
	flags, barriers := run(Options{}), run(Options{BarrierSMPBcst: true})
	if flags >= barriers {
		t.Errorf("punctual task under flags (%v) should finish before barrier arbitration (%v)",
			flags, barriers)
	}
}
