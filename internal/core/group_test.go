package core

import (
	"bytes"
	"fmt"
	"srmcoll/internal/bufpool"
	"strings"
	"testing"
	"testing/quick"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/ranks"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// groupHarness runs body on the given member ranks only.
func groupHarness(t testing.TB, nodes, tpn int, members []int,
	body func(g *Group, p *sim.Proc, rank int)) *machine.Machine {
	t.Helper()
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(nodes, tpn))
	s := New(m, rma.NewDomain(m), Options{})
	g := s.Group(members)
	for _, r := range members {
		r := r
		env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) { body(g, p, r) })
	}
	if err := env.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	return m
}

func TestLayoutGrouping(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(4, 4))
	lay := New(m, nil, Options{}).newLayout([]int{9, 2, 1, 14, 8})
	if fmt.Sprint(lay.nodes) != "[0 2 3]" {
		t.Fatalf("nodes = %v", lay.nodes)
	}
	// Members keep group order within each node.
	if fmt.Sprint(lay.local[0]) != "[2 1]" || fmt.Sprint(lay.local[1]) != "[9 8]" ||
		fmt.Sprint(lay.local[2]) != "[14]" {
		t.Fatalf("local = %v", lay.local)
	}
	if lay.ni(8) != 1 || lay.li(8) != 1 || lay.li(2) != 0 {
		t.Fatalf("placement wrong: idx=%v at=%v", lay.idx, lay.at)
	}
	if !lay.contains(14) || lay.contains(0) {
		t.Fatal("contains wrong")
	}
}

func TestLayoutPanics(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 2))
	for _, members := range [][]int{{}, {4}, {-1}, {1, 1}} {
		members := members
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newLayout(%v) did not panic", members)
				}
			}()
			New(m, nil, Options{}).newLayout(members)
		}()
	}
}

func TestGroupRegistryShared(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 2))
	s := New(m, rma.NewDomain(m), Options{})
	a := s.Group([]int{0, 2})
	b := s.Group([]int{0, 2})
	if a != b {
		t.Fatal("same member list must yield the same Group")
	}
	if c := s.Group([]int{2, 0}); c == a {
		t.Fatal("different member order must be a different group")
	}
	if s.World().Size() != 4 {
		t.Fatalf("world size = %d", s.World().Size())
	}
	if a.Size() != 2 || !a.lay.contains(2) || a.lay.contains(1) {
		t.Fatal("group accessors wrong")
	}
	if fmt.Sprint(a.lay.members) != "[0 2]" {
		t.Fatalf("members = %v", a.lay.members)
	}
	// A hash only narrows the search: with [0 2]'s group planted in the bucket
	// [1 3] hashes to, [1 3] still gets a group of its own, there.
	h := ranks.Hash([]int{1, 3})
	s.groups[h] = a
	d := s.Group([]int{1, 3})
	if d == a || fmt.Sprint(d.lay.members) != "[1 3]" || s.groups[h] != d || d.next != a || s.Group([]int{1, 3}) != d {
		t.Fatalf("[1 3] in a bucket with [0 2] resolved to %v", d.lay.members)
	}
	// A list seen before is found without being laid out again.
	if n := testing.AllocsPerRun(100, func() { s.Group([]int{0, 2}) }); n != 0 {
		t.Fatalf("finding a known group allocates %v objects", n)
	}
}

func TestGroupEmbedRootMaster(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(4, 4))
	g := New(m, rma.NewDomain(m), Options{}).Group([]int{1, 2, 5, 6, 9, 13})
	lay := &g.lay
	e := g.embed(0, 6) // root 6 on node 1 (members 5, 6)
	if e.masters[lay.ni(6)] != 6 {
		t.Fatalf("root node master = %d, want the root itself", e.masters[lay.ni(6)])
	}
	// Other nodes take their first member as master.
	if e.masters[0] != 1 || e.masters[2] != 9 || e.masters[3] != 13 {
		t.Fatalf("masters = %v", e.masters)
	}
}

// TestTopologyBuiltOncePerRun: trees are pure functions of their shape, so a
// run builds each shape once. Three rounds of allreduce, broadcast from a rank
// in the middle of a node and reduce on 16 nodes of 8 ask for an intra-node tree
// 16 times per operation state and more; the run ends with the one shape they
// use — eight tasks rooted at local 0: the broadcast's SMP stage is flat, and an
// embedding holds no intra-node trees — and the world group with its two
// embeddings. The tree constructors have no caller in this package but the two
// caches, so entries are constructor calls.
func TestTopologyBuiltOncePerRun(t *testing.T) {
	const nodes, tpn, root, size = 16, 8, 21, 256
	var eng *SRM
	harness(t, nodes, tpn, Options{}, func(s *SRM, p *sim.Proc, rank int) {
		eng = s
		send, recv, buf := make([]byte, size), make([]byte, size), make([]byte, size)
		for round := 0; round < 3; round++ {
			s.Allreduce(p, rank, send, recv, dtype.Float64, dtype.Sum)
			s.Bcast(p, rank, buf, root)
			s.Reduce(p, rank, send, recv, dtype.Float64, dtype.Sum, 0)
		}
	})
	if _, ok := eng.trees[treeKey{tpn, 0}]; !ok || len(eng.trees) != 1 {
		t.Errorf("%d intra-node trees built, want 1, for %+v: %v", len(eng.trees), treeKey{tpn, 0}, eng.trees)
	}
	g := eng.World()
	if len(g.embeds) != 2 {
		t.Errorf("%d embeddings of the world group built, want the broadcast's and the reduce's", len(g.embeds))
	}
	if first, again := g.embed(0, root), g.embed(0, root); &again.inter.Parent[0] != &first.inter.Parent[0] || len(g.embeds) != 2 {
		t.Error("asking for an embedding a second time built it again")
	}
}

func TestGroupBarrier(t *testing.T) {
	members := []int{1, 3, 4, 6, 9, 11} // sparse across 3 of 3 nodes
	enter := make(map[int]sim.Time)
	exit := make(map[int]sim.Time)
	groupHarness(t, 3, 4, members, func(g *Group, p *sim.Proc, rank int) {
		p.Sleep(sim.Time(rank) * 3)
		enter[rank] = p.Now()
		block(p, func(t *sim.Task, k sim.K) { g.BarrierT(t, rank, k) })
		exit[rank] = p.Now()
	})
	var last sim.Time
	for _, e := range enter {
		if e > last {
			last = e
		}
	}
	for r, x := range exit {
		if x < last {
			t.Errorf("rank %d left group barrier at %v before last arrival %v", r, x, last)
		}
	}
}

func checkGroupBcast(t *testing.T, nodes, tpn int, members []int, size, root int) {
	t.Helper()
	want := pattern(size, root)
	bufs := make(map[int][]byte, len(members))
	for _, r := range members {
		bufs[r] = make([]byte, size)
	}
	copy(bufs[root], want)
	groupHarness(t, nodes, tpn, members, func(g *Group, p *sim.Proc, rank int) {
		block(p, func(t *sim.Task, k sim.K) { g.BcastT(t, rank, bufs[rank], root, k) })
	})
	for _, r := range members {
		if !bytes.Equal(bufs[r], want) {
			t.Fatalf("members=%v size=%d root=%d: rank %d corrupted", members, size, root, r)
		}
	}
}

func TestGroupBcastShapes(t *testing.T) {
	cases := []struct {
		members []int
		size    int
		root    int
	}{
		{[]int{0, 1, 2, 3}, 4096, 0},             // one full node
		{[]int{2, 5, 9}, 4096, 5},                // one member per node
		{[]int{1, 3, 4, 6, 9, 11}, 2048, 9},      // sparse, non-master root
		{[]int{1, 3, 4, 6, 9, 11}, 20 << 10, 4},  // chunked pipeline path
		{[]int{1, 3, 4, 6, 9, 11}, 100 << 10, 1}, // large path
		{[]int{7}, 512, 7},                       // singleton group
	}
	for _, c := range cases {
		checkGroupBcast(t, 3, 4, c.members, c.size, c.root)
	}
}

func TestGroupReduceSum(t *testing.T) {
	members := []int{1, 3, 4, 6, 9, 11}
	for _, elems := range []int{1, 300, 20000} {
		vecs := make(map[int][]float64, len(members))
		sends := make(map[int][]byte, len(members))
		for _, r := range members {
			v := make([]float64, elems)
			for i := range v {
				v[i] = float64((r+1)*(i%19) - r)
			}
			vecs[r] = v
			sends[r] = dtype.Float64Bytes(v)
		}
		root := 6
		recv := make([]byte, elems*8)
		groupHarness(t, 3, 4, members, func(g *Group, p *sim.Proc, rank int) {
			var rb []byte
			if rank == root {
				rb = recv
			}
			block(p, func(t *sim.Task, k sim.K) { g.ReduceT(t, rank, sends[rank], rb, dtype.Float64, dtype.Sum, root, k) })
		})
		got := dtype.Float64s(recv)
		for i := range got {
			var want float64
			for _, r := range members {
				want += vecs[r][i]
			}
			if got[i] != want {
				t.Fatalf("elems=%d: element %d = %v, want %v", elems, i, got[i], want)
			}
		}
	}
}

func TestGroupAllreduce(t *testing.T) {
	members := []int{0, 2, 5, 7, 8, 9, 10}  // uneven per-node counts
	for _, elems := range []int{64, 5000} { // small and large paths
		sends := make(map[int][]byte, len(members))
		recvs := make(map[int][]byte, len(members))
		var want float64
		for _, r := range members {
			sends[r] = dtype.Float64Bytes(float64slice(elems, r))
			recvs[r] = make([]byte, elems*8)
			want += float64(r + 1)
		}
		groupHarness(t, 3, 4, members, func(g *Group, p *sim.Proc, rank int) {
			block(p, func(t *sim.Task, k sim.K) {
				g.AllreduceT(t, rank, sends[rank], recvs[rank], dtype.Float64, dtype.Sum, k)
			})
		})
		for _, r := range members {
			got := dtype.Float64s(recvs[r])
			if got[0] != want {
				t.Fatalf("elems=%d rank=%d: got %v, want %v", elems, r, got[0], want)
			}
		}
	}
}

// float64slice builds a constant vector keyed by rank.
func float64slice(elems, r int) []float64 {
	v := make([]float64, elems)
	for i := range v {
		v[i] = float64(r + 1)
	}
	return v
}

func TestConcurrentDisjointGroups(t *testing.T) {
	// Two disjoint groups run different collectives simultaneously.
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 4))
	s := New(m, rma.NewDomain(m), Options{})
	evens := s.Group([]int{0, 2, 4, 6})
	odds := s.Group([]int{1, 3, 5, 7})
	wantE := pattern(2048, 0)
	bufs := make([][]byte, 8)
	recvs := make([][]byte, 8)
	for r := 0; r < 8; r++ {
		bufs[r] = make([]byte, 2048)
		recvs[r] = make([]byte, 8)
		r := r
		env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			if r%2 == 0 {
				if r == 0 {
					copy(bufs[0], wantE)
				}
				block(p, func(t *sim.Task, k sim.K) { evens.BcastT(t, r, bufs[r], 0, k) })
			} else {
				block(p, func(t *sim.Task, k sim.K) {
					odds.AllreduceT(t, r, dtype.Float64Bytes([]float64{float64(r)}), recvs[r], dtype.Float64, dtype.Sum, k)
				})
				block(p, func(t *sim.Task, k sim.K) { odds.BarrierT(t, r, k) })
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r += 2 {
		if !bytes.Equal(bufs[r], wantE) {
			t.Fatalf("even group rank %d corrupted", r)
		}
	}
	for r := 1; r < 8; r += 2 {
		if got := dtype.Float64s(recvs[r]); got[0] != 1+3+5+7 {
			t.Fatalf("odd group rank %d allreduce = %v", r, got[0])
		}
	}
}

func TestNestedSub(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 4))
	s := New(m, rma.NewDomain(m), Options{})
	g := s.Group([]int{0, 1, 2, 3, 4, 5})
	sub := g.Sub([]int{1, 4, 5})
	if sub.Size() != 3 {
		t.Fatalf("nested sub size = %d", sub.Size())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Sub with non-member did not panic")
			}
		}()
		g.Sub([]int{1, 7})
	}()
}

func TestGroupNonMemberPanics(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 4))
	s := New(m, rma.NewDomain(m), Options{})
	g := s.Group([]int{0, 1})
	env.Spawn("outsider", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("non-member collective call did not panic")
			}
		}()
		block(p, func(t *sim.Task, k sim.K) { g.BarrierT(t, 3, k) })
	})
	_ = env.Run()
}

// Property: group broadcast delivers for random member subsets and roots.
func TestPropGroupBcast(t *testing.T) {
	f := func(mask uint16, rootSel uint8, szRaw uint16) bool {
		nodes, tpn := 3, 4
		var members []int
		for r := 0; r < nodes*tpn; r++ {
			if mask&(1<<uint(r%16)) != 0 || r == 0 {
				members = append(members, r)
			}
		}
		size := int(szRaw) % 4096
		root := members[int(rootSel)%len(members)]
		want := pattern(size, root)
		bufs := make(map[int][]byte, len(members))
		for _, r := range members {
			bufs[r] = make([]byte, size)
		}
		copy(bufs[root], want)
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(nodes, tpn))
		s := New(m, rma.NewDomain(m), Options{})
		g := s.Group(members)
		for _, r := range members {
			r := r
			env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				block(p, func(t *sim.Task, k sim.K) { g.BcastT(t, r, bufs[r], root, k) })
			})
		}
		if env.Run() != nil {
			return false
		}
		for _, r := range members {
			if !bytes.Equal(bufs[r], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOperationOwnsItsBuffers pins the two ends of a protocol buffer's life:
// an operation every member completed hands its buffers back to the machine's
// pool when the last member retires; one that a member left by a kill keeps
// them out of the pool for good, because puts it had under way may still land
// in them. Its counters are what those puts bump on landing, so they go the
// same way: a completed operation's slabs are the reserve's again as the run
// goes on, an aborted one's only when the run is over.
func TestOperationOwnsItsBuffers(t *testing.T) {
	const size = 8 << 10 // above slabMax: every slot is a pooled buffer of its own
	for _, abort := range []bool{false, true} {
		cntrs := bufpool.Slabs[rma.Counter]().Returned
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(2, 1))
		s := New(m, rma.NewDomain(m), Options{})
		procs := make([]*sim.Proc, 2)
		for r := range procs {
			r := r
			procs[r] = env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				if r == 1 {
					p.Sleep(1000) // rank 0 builds the state and waits in the exchange
				}
				s.Allreduce(p, r, pattern(size, r), make([]byte, size), dtype.Uint8, dtype.Bxor)
			})
		}
		var owned [][]byte
		env.At(500, func() {
			owned = s.World().ops[0].bufs
			if abort {
				env.Kill(&procs[0].Task, "test")
			}
		})
		if abort {
			env.At(2000, func() { env.Kill(&procs[1].Task, "test") })
		}
		if err := env.Run(); (err != nil) != abort {
			t.Fatalf("abort=%v: simulation: %v", abort, err)
		}
		if len(owned) == 0 || len(s.World().ops) != 0 {
			t.Fatalf("abort=%v: %d buffers owned, %d operations left open", abort, len(owned), len(s.World().ops))
		}
		// Empty the pool's free lists of the owned buffers' size classes and
		// count which of them come out.
		back := 0
		for _, o := range owned {
			for {
				_, hits := m.Buffers.Stats()
				b := m.Buffers.Get(cap(o))
				if _, h := m.Buffers.Stats(); h == hits {
					break
				}
				for _, o := range owned {
					if &o[0] == &b[0] {
						back++
					}
				}
			}
		}
		if want := map[bool]int{false: len(owned), true: 0}[abort]; back != want {
			t.Errorf("abort=%v: %d of %d buffers returned to the pool, want %d", abort, back, len(owned), want)
		}
		s.settled(true) // what the next operation's build would find, had the clock moved on
		if got := bufpool.Slabs[rma.Counter]().Returned - cntrs; (got == 0) != abort {
			t.Errorf("abort=%v: %d counter slabs returned to the reserve with the run going on", abort, got)
		}
		s.Release()
		if got := bufpool.Slabs[rma.Counter]().Returned - cntrs; got == 0 {
			t.Errorf("abort=%v: no counter slab returned to the reserve by the end of the run", abort)
		}
	}
}

// TestKillAndInterruptInsideCollective: three of four ranks are inside a small
// allreduce — masters with interrupts off and inside Waitcntr, the other
// spinning on a flag — when each is killed or interrupted. finish used to be
// deferred on the process's stack; it rides the Task's unwind stack now, with
// the compensations of whatever wait the rank was in, and must leave the rank's
// endpoint, node and executor as a completed call would before the body sees
// the failure.
func TestKillAndInterruptInsideCollective(t *testing.T) {
	for _, kill := range []bool{true, false} {
		env := sim.NewEnv()
		env.Trace = trace.New(env.Now)
		cfg := machine.ColonySP(2, 2)
		cfg.SpinYield = false
		m := machine.New(env, cfg)
		dom := rma.NewDomain(m)
		s := New(m, dom, Options{})
		var deferred, recovered int
		victims := make([]*sim.Proc, 3)
		for r := range victims {
			r := r
			victims[r] = env.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
				defer func() { deferred++ }()
				func() {
					defer func() {
						r := recover()
						if _, crash := r.(sim.Crashed); crash {
							panic(r)
						}
						if r == "revoked" && p.Now() == 50 {
							recovered++
						}
					}()
					s.Allreduce(p, r, make([]byte, 64), make([]byte, 64), dtype.Int64, dtype.Sum)
					t.Errorf("rank %d: the allreduce returned without rank 3", r)
				}()
				p.Sleep(1) // survived: the process goes on
			})
			victims[r].SetTrack(r)
		}
		env.Spawn("rank3", func(p *sim.Proc) { p.Sleep(1000) }) // never joins
		env.At(50, func() {
			if m.SpinPenalty(0) == 0 {
				t.Fatal("the scenario no longer has rank 1 spinning at t=50")
			}
			for _, v := range victims {
				if kill {
					env.Kill(&v.Task, "injected")
				} else {
					env.Interrupt(&v.Task, "revoked")
				}
			}
		})
		// A put to each master afterwards is delivered by interrupt: the
		// endpoint has them on again and is not inside an RMA call.
		env.At(60, func() {
			if _, idle := s.execs.Count(); idle != 3 {
				t.Errorf("kill=%v: %d executors recycled, want 3", kill, idle)
			}
			env.Spawn("probe", func(p *sim.Proc) {
				before := m.Stats.Interrupts
				dom.Endpoint(2).PutZero(p, dom.Endpoint(0), dom.NewCounter(0))
				dom.Endpoint(0).PutZero(p, dom.Endpoint(2), dom.NewCounter(0))
				p.Sleep(500)
				if got := m.Stats.Interrupts - before; got != 2 {
					t.Errorf("kill=%v: %d of 2 puts to the masters delivered by interrupt", kill, got)
				}
			})
		})
		err := env.Run()
		if ce, ok := err.(*sim.CrashError); kill && (!ok || len(ce.Failures) != 3) || !kill && (err != nil || recovered != 3) {
			t.Errorf("kill=%v: Run() = %v with %d interrupts recovered at t=50", kill, err, recovered)
		}
		if deferred != 3 || env.Live() != 0 {
			t.Errorf("kill=%v: body defers ran %d times, %d tasks live", kill, deferred, env.Live())
		}
		if m.SpinPenalty(0) != 0 || m.SpinPenalty(1) != 0 {
			t.Errorf("kill=%v: a node still counts a spinner", kill)
		}
		for _, sp := range env.Trace.Spans() {
			// Only a counter wait's span (wait:arrive, wait:credit, ...) is left
			// open, for the export to clamp, as it always was.
			if cl := sp.Class.String(); sp.End < sp.Begin && (cl == "wait:flag" || !strings.HasPrefix(cl, "wait:")) {
				t.Errorf("kill=%v: span %+v left open", kill, sp)
			}
		}
	}
}
