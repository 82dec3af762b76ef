package srmcoll

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"srmcoll/internal/bufpool"
)

// heapAfterCycle collects and reads the heap's statistics: HeapAlloc is then
// what is live.
func heapAfterCycle() (ms runtime.MemStats) {
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

// unreturned runs fn and reports how many pooled buffers the simulations
// inside it had not given back to their pool when they handed it in.
func unreturned(fn func()) uint64 {
	before := bufpool.Reserve().Unreturned
	fn()
	return bufpool.Reserve().Unreturned - before
}

// TestPoolBalancedAtHandBack: rewinding a pool forgets a buffer nobody
// returned, so a dropped Put no longer shows even as garbage — it only makes
// the run look greedier, and the reserve larger. Every Get of a run that ends
// normally is matched by a Put before the pool is handed back: for the
// conformance corpus (SRM and both MPI baselines, blocking and request forms,
// sub-communicators), for the engine-equivalence matrix from both forms of
// body, and for the same matrix on a wire that drops, duplicates and delays
// under reliable delivery. A crashed run may keep what its aborted operations
// held (their slots can still be written to, DESIGN §9); that is reported, not
// required to be zero. A put's snapshot is the wire's and always comes back.
func TestPoolBalancedAtHandBack(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		sc := genScenario(rand.New(rand.NewSource(seed)))
		if n := unreturned(func() { runConformance(t, sc) }); n != 0 {
			t.Errorf("conformance seed %d (%s): %d buffers not returned", seed, sc, n)
		}
	}
	lossy := FaultPlan{Seed: 11, Drop: 0.3, Dup: 0.25, Delay: 0.5, DelayMax: 4,
		Reliable: true, AckTimeout: 50, Deadline: 5e6}
	for name, mk := range engCollectiveScenarios() {
		for _, plan := range []FaultPlan{{}, lossy} {
			cl := mustCluster(t, 3, 4)
			cl.SetFaultPlan(plan)
			if n := unreturned(func() { runBothEngines(t, cl, SRM, mk) }); n != 0 {
				t.Errorf("%s (drop %.1f, reliable %v): %d buffers not returned by the two runs", name, plan.Drop, plan.Reliable, n)
			}
		}
	}
	// The chaos corpus: what is still out of the pool when a crashed run hands
	// it back is what its aborted operations held, never a put's snapshot —
	// not of a put a dead target refused, nor of one whose deferred landing
	// went with the target, nor of one that stopped retransmitting to it.
	var kept [2]uint64
	chaosCorpus(func(name string, ranks int, plan FaultPlan) {
		cl := mustCluster(t, ranks/4, 4)
		cl.SetFaultTolerance(DefaultFTConfig())
		cl.SetFaultPlan(plan)
		for form, run := range []func() (*simulation, *Result, error){
			func() (*simulation, *Result, error) {
				return simulateKeeping(cl, EngineProcs, func(sm *simulation) { sm.spawnProcs(chaosLoopBodyCompute(10, 256, 25, nil)) })
			},
			func() (*simulation, *Result, error) {
				return simulateKeeping(cl, EngineTasks, func(sm *simulation) { sm.spawnTasks(chaosLoopBodyT(10, 256, 25)) })
			},
		} {
			var sm *simulation
			var err error
			kept[form] += unreturned(func() { sm, _, err = run() })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ty := sm.dom.Tally(); ty.Snapshots != 0 {
				t.Errorf("%s: %d put snapshots not returned (%+v)", name, ty.Snapshots, ty)
			}
		}
	})
	t.Logf("chaos corpus: %d buffers kept by aborted operations from blocking bodies, %d from continuation bodies", kept[0], kept[1])
}

// reserveCase is one run of TestConcurrentRunsShareReserve: an allreduce of
// size bytes per rank.
type reserveCase struct {
	nodes, tpn int
	impl       Impl
	engine     Engine
	size       int
}

// run executes the case on cl and checks every rank's sum. recv is scratch of
// at least ranks*size bytes that the caller owns.
func (rc reserveCase) run(cl *Cluster, send, recv []byte) (*Result, error) {
	ranks := rc.nodes * rc.tpn
	res, err := cl.RunT(rc.impl, func(tc *TComm, done func()) {
		r := tc.Rank()
		tc.Allreduce(send[:rc.size], recv[r*rc.size:(r+1)*rc.size], Float64, Sum, func(err error) {
			if err != nil {
				panic(err)
			}
			done()
		})
	})
	if err != nil {
		return nil, err
	}
	in, out := Float64s(send[:rc.size]), Float64s(recv[:ranks*rc.size])
	for i, v := range out {
		if want := float64(ranks) * in[i%len(in)]; v != want {
			return nil, fmt.Errorf("rank %d element %d: got %v, want %v", i/len(in), i%len(in), v, want)
		}
	}
	return res, nil
}

// TestConcurrentRunsShareReserve is the contract Run documents: simulations on
// different goroutines, some of the same Cluster, each own the pool they
// checked out. Every result equals the one the same run gives alone; under the
// race detector two runs handed one spare are a reported race on its free
// lists, and the payload check catches them without it.
func TestConcurrentRunsShareReserve(t *testing.T) {
	cases := []reserveCase{
		{2, 4, SRM, EngineProcs, 8},
		{2, 4, SRM, EngineTasks, 4 << 10},
		{2, 4, IBMMPI, EngineProcs, 64 << 10},
		{2, 4, MPICHMPI, EngineProcs, 512 << 10},
		{3, 4, MPICHMPI, EngineProcs, 4 << 10},
		{3, 4, SRM, EngineTasks, 512 << 10},
		{3, 4, IBMMPI, EngineProcs, 512 << 10},
		{4, 16, SRM, EngineProcs, 64 << 10},
		{4, 16, IBMMPI, EngineProcs, 4 << 10},
		{4, 16, SRM, EngineTasks, 64 << 10},
		{16, 16, SRM, EngineProcs, 4 << 10},
		{16, 16, MPICHMPI, EngineProcs, 8},
		{16, 16, SRM, EngineTasks, 4 << 10},
	}
	// One Cluster per shape and engine, shared by every goroutine that runs
	// a case on it; nothing sets anything on it once the runs have begun.
	type clusterKey struct {
		nodes, tpn int
		engine     Engine
	}
	clusters := make(map[clusterKey]*Cluster)
	scratch := 0
	for _, rc := range cases {
		key := clusterKey{rc.nodes, rc.tpn, rc.engine}
		if clusters[key] == nil {
			clusters[key] = mustCluster(t, rc.nodes, rc.tpn)
			clusters[key].SetEngine(rc.engine)
		}
		scratch = max(scratch, rc.nodes*rc.tpn*rc.size)
	}
	vals := make([]float64, (512<<10)/8)
	for i := range vals {
		vals[i] = float64(i%251 + 1)
	}
	send := Float64Bytes(vals)
	serial := make([]*Result, len(cases))
	recv := make([]byte, scratch)
	for i, rc := range cases {
		res, err := rc.run(clusters[clusterKey{rc.nodes, rc.tpn, rc.engine}], send, recv)
		if err != nil {
			t.Fatalf("serial %+v: %v", rc, err)
		}
		serial[i] = res
	}

	const workers, runs = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			recv := make([]byte, scratch)
			for k := 0; k < runs; k++ {
				i := (5*w + 3*k) % len(cases)
				rc, want := cases[i], serial[i]
				got, err := rc.run(clusters[clusterKey{rc.nodes, rc.tpn, rc.engine}], send, recv)
				if err != nil {
					t.Errorf("worker %d run %d %+v: %v", w, k, rc, err)
					return
				}
				if got.Time != want.Time || !reflect.DeepEqual(got.PerRank, want.PerRank) ||
					got.Stats != want.Stats || got.Events != want.Events {
					t.Errorf("worker %d run %d %+v: time %v, %d events, stats %+v; alone it gave time %v, %d events, stats %+v",
						w, k, rc, got.Time, got.Events, got.Stats, want.Time, want.Events, want.Stats)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := bufpool.CheckReserve(); err != nil {
		t.Error(err)
	}
	if got, limit := bufpool.Reserve().Spares, runtime.GOMAXPROCS(0); got == 0 || got > limit {
		t.Errorf("%d spares in the reserve after the runs, want between 1 and GOMAXPROCS = %d", got, limit)
	}
}

// TestReserveRetentionIsBounded drives the reserve's two promises through
// Run: what a run needed is there when the run comes round again, and what no
// recent run needed is given up. The large run is a baseline reduce of
// 512 KiB over 128 ranks, whose 64 interior ranks each hold a scratch buffer
// and, but for the root, an accumulator: 127 staging buffers, 63.5 MiB at
// once, the shape of the benchmark grid's largest cell.
func TestReserveRetentionIsBounded(t *testing.T) {
	bufpool.DrainReserve()
	defer bufpool.DrainReserve()
	const ranks, size = 128, 512 << 10
	const staging = (ranks/2 + ranks/2 - 1) * size
	send, out := make([]byte, size), make([]byte, size)
	large, small := mustCluster(t, ranks/8, 8), mustCluster(t, 2, 4)
	runLarge := func() {
		t.Helper()
		if _, err := large.Run(IBMMPI, func(c *Comm) {
			var recv []byte
			if c.Rank() == 0 {
				recv = out
			}
			c.Reduce(send, recv, Float64, Sum, 0)
		}); err != nil {
			t.Fatal(err)
		}
	}
	runSmall := func() {
		t.Helper()
		word := make([]byte, 4<<10)
		if _, err := small.Run(SRM, func(c *Comm) { c.Bcast(word, 0) }); err != nil {
			t.Fatal(err)
		}
	}
	start := heapAfterCycle()
	runLarge()
	held := bufpool.Reserve().Bytes
	if held < staging {
		t.Fatalf("the reserve holds %d bytes after a run that held %d bytes of staging buffers at once", held, staging)
	}
	// The grid's rhythm: the large cell comes round after a few small ones
	// and must not draw its blocks again.
	for round := 0; round < 4; round++ {
		for k := 0; k < 3; k++ {
			runSmall()
		}
		before := heapAfterCycle()
		runLarge()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if drawn := after.TotalAlloc - before.TotalAlloc; drawn > 8<<20 {
			t.Errorf("round %d: the warm large run allocated %d bytes, want its records and messages only", round, drawn)
		}
		if got := bufpool.Reserve().Bytes; got != held {
			t.Errorf("round %d: the reserve holds %d bytes, want the %d of the first large run", round, got, held)
		}
	}
	// Nobody needs them any more: a window of small runs later they are gone.
	for k := 0; k < bufpool.Window; k++ {
		runSmall()
	}
	if got := bufpool.Reserve().Bytes; got > 2<<20 {
		t.Errorf("the reserve holds %d bytes after %d runs of 4 KiB, want at most 2 MiB", got, bufpool.Window)
	}
	if grown := int64(heapAfterCycle().HeapAlloc) - int64(start.HeapAlloc); grown > 2<<20 {
		t.Errorf("the heap is %d bytes above where it started, want within 2 MiB", grown)
	}
}
