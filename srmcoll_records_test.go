package srmcoll

import (
	"errors"
	"math/rand"
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
)

// slabsOf runs fn and reports how many record slabs of every type together the
// simulations inside it drew from the reserve and how many they returned.
func slabsOf(fn func()) (drawn, returned uint64) {
	before := bufpool.Reserve().Slabs
	fn()
	after := bufpool.Reserve().Slabs
	return after.Drawn - before.Drawn, after.Returned - before.Returned
}

// TestRecordsBalancedAtHandBack is TestPoolBalancedAtHandBack for the records.
// A run that ends with a result has returned every slab it drew — its tasks,
// queue items, calendar runs, put frames, channels and executors, and the
// flags and counters of every operation: of the completed ones as the run went,
// of the aborted and the never-finished ones at its end — over the conformance
// corpus, the engine-equivalence matrix on a clean and on a lossy wire, and the
// chaos corpus from both forms of body. A run that ends in a deadlock, a stall
// or a crash nobody planned returns none of what it holds at its end: the
// report names tasks, actors are parked on the records.
func TestRecordsBalancedAtHandBack(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		sc := genScenario(rand.New(rand.NewSource(seed)))
		if drawn, returned := slabsOf(func() { runConformance(t, sc) }); drawn == 0 || drawn != returned {
			t.Errorf("conformance seed %d (%s): %d slabs drawn, %d returned", seed, sc, drawn, returned)
		}
	}
	lossy := FaultPlan{Seed: 11, Drop: 0.3, Dup: 0.25, Delay: 0.5, DelayMax: 4,
		Reliable: true, AckTimeout: 50, Deadline: 5e6}
	for name, mk := range engCollectiveScenarios() {
		for _, plan := range []FaultPlan{{}, lossy} {
			cl := mustCluster(t, 3, 4)
			cl.SetFaultPlan(plan)
			if drawn, returned := slabsOf(func() { runBothEngines(t, cl, SRM, mk) }); drawn == 0 || drawn != returned {
				t.Errorf("%s (drop %.1f, reliable %v): %d slabs drawn, %d returned by the two runs", name, plan.Drop, plan.Reliable, drawn, returned)
			}
		}
	}
	var aborted int
	chaosCorpus(func(name string, ranks int, plan FaultPlan) {
		cl := mustCluster(t, ranks/4, 4)
		cl.SetFaultTolerance(DefaultFTConfig())
		cl.SetFaultPlan(plan)
		for _, run := range []func() (*Result, error){
			func() (*Result, error) { return cl.Run(SRM, chaosLoopBodyCompute(10, 256, 25, nil)) },
			func() (*Result, error) { return cl.RunT(SRM, chaosLoopBodyT(10, 256, 25)) },
		} {
			var res *Result
			var err error
			drawn, returned := slabsOf(func() { res, err = run() })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if drawn != returned {
				t.Errorf("%s: %d slabs drawn, %d returned", name, drawn, returned)
			}
			aborted += len(res.Failures)
		}
	})
	if aborted == 0 {
		t.Error("no rank of the chaos corpus failed: its runs aborted no operation")
	}

	// The ends that leave actors behind. What the operations that completed
	// before it returned as the run went stays returned; the run's own records
	// — a task slab at the least — do not come back.
	mismatch := func(tc *TComm, done func()) {
		tc.Barrier(func(error) {
			if tc.Rank() == 0 {
				done()
				return
			}
			tc.Barrier(func(error) { done() })
		})
	}
	crash := func(tc *TComm, done func()) {
		tc.Barrier(func(error) {
			if tc.Rank() == 1 {
				panic("unplanned")
			}
			tc.Barrier(func(error) { done() })
		})
	}
	stalled := mustCluster(t, 2, 4)
	stalled.SetFaultPlan(FaultPlan{Seed: 3, Drop: 1, Reliable: true, Deadline: 2000})
	for _, end := range []struct {
		name string
		cl   *Cluster
		body func(*TComm, func())
		is   func(error) bool
	}{
		{"deadlock", mustCluster(t, 2, 4), mismatch, func(err error) bool { var e *DeadlockError; return errors.As(err, &e) }},
		{"stall", stalled, mismatch, func(err error) bool { var e *StallError; return errors.As(err, &e) }},
		{"crash", mustCluster(t, 2, 4), crash, func(err error) bool { var e *RunError; return errors.As(err, &e) }},
	} {
		for _, engine := range []Engine{EngineProcs, EngineTasks} {
			end.cl.SetEngine(engine)
			tasks := bufpool.Slabs[sim.Task]()
			var err error
			drawn, returned := slabsOf(func() { _, err = end.cl.RunT(SRM, end.body) })
			if !end.is(err) {
				t.Fatalf("%s, %s: the run ended with %v", end.name, engine, err)
			}
			if got := bufpool.Slabs[sim.Task](); got.Returned != tasks.Returned || drawn <= returned {
				t.Errorf("%s, %s: %d slabs drawn, %d returned, %d of them of tasks: want the run's own kept from the reserve",
					end.name, engine, drawn, returned, got.Returned-tasks.Returned)
			}
		}
	}
	if err := bufpool.CheckReserve(); err != nil {
		t.Error(err)
	}
}

// TestLongRunRecordMemoryIsBounded: an operation's flags and counters go back
// when the operation is over, so what a run draws of them follows the
// operations it has in flight, not the operations it makes: 2,000 barriers,
// broadcasts and allreduces in turn on 2x4 ranks, from both forms of body and
// as a stream of eight requests outstanding, make a handful of slabs where each
// operation carves from at least one of either kind.
func TestLongRunRecordMemoryIsBounded(t *testing.T) {
	const ops, size, window = 2000, 64, 8
	vec := make([]byte, 8*size)
	row := func(r int) []byte { return vec[r*size : (r+1)*size : (r+1)*size] }
	out := make([]byte, 8*size)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	blocking := func(tc *TComm, done func()) {
		r, k := tc.Rank(), 0
		var next func(error)
		next = func(err error) {
			must(err)
			switch k++; {
			case k > ops:
				done()
			case k%3 == 0:
				tc.Barrier(next)
			case k%3 == 1:
				tc.Bcast(row(r), 0, next)
			default:
				tc.Allreduce(row(r), out[r*size:(r+1)*size], Int64, Sum, next)
			}
		}
		next(nil)
	}
	// Request k of a rank owns slot k%window of the rank's buffers until its
	// Wait, which comes before request k+window is issued.
	ring, rout := make([]byte, 8*window*size), make([]byte, 8*window*size)
	slot := func(b []byte, r, k int) []byte {
		at := (r*window + k%window) * size
		return b[at : at+size : at+size]
	}
	stream := func(c *Comm) {
		r := c.Rank()
		var reqs []*Request
		for k := 1; k <= ops; k++ {
			if len(reqs) == window {
				must(reqs[0].Wait())
				reqs = reqs[1:]
			}
			switch k % 3 {
			case 0:
				reqs = append(reqs, c.IBarrier())
			case 1:
				reqs = append(reqs, c.IBcast(slot(ring, r, k), 0))
			default:
				reqs = append(reqs, c.IAllreduce(slot(ring, r, k), slot(rout, r, k), Int64, Sum))
			}
		}
		for _, q := range reqs {
			must(q.Wait())
		}
	}
	cl := mustCluster(t, 2, 4)
	for _, form := range []struct {
		name  string
		run   func() (*Result, error)
		limit uint64
	}{
		{"continuation body", func() (*Result, error) { cl.SetEngine(EngineTasks); return cl.RunT(SRM, blocking) }, 6},
		{"blocking body", func() (*Result, error) { cl.SetEngine(EngineProcs); return cl.RunT(SRM, blocking) }, 6},
		{"request stream", func() (*Result, error) { return cl.Run(SRM, stream) }, 2 * (window + 2)},
	} {
		bufpool.DrainReserve()
		flags, cntrs := bufpool.Slabs[shm.Flag](), bufpool.Slabs[rma.Counter]()
		if _, err := form.run(); err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		f, c := bufpool.Slabs[shm.Flag](), bufpool.Slabs[rma.Counter]()
		t.Logf("%s: %d operations drew %d flag slabs and %d counter slabs, made %d and %d", form.name, ops,
			f.Drawn-flags.Drawn, c.Drawn-cntrs.Drawn, f.Made-flags.Made, c.Made-cntrs.Made)
		if f.Drawn-flags.Drawn < ops/2 {
			t.Errorf("%s: %d flag slabs drawn by %d operations: the run does not carve an operation's from slabs of its own", form.name, f.Drawn-flags.Drawn, ops)
		}
		if made := max(f.Made-flags.Made, c.Made-cntrs.Made); made > form.limit {
			t.Errorf("%s: %d slabs of flags or of counters made for %d operations, want at most %d: those of the operations in flight",
				form.name, made, ops, form.limit)
		}
	}
	bufpool.DrainReserve()
}

// TestRecordReserveIsBounded: the reserve keeps no more slabs of a type than
// its cap however large the run that returns them (CheckReserve holds every
// stack to it), and what the runs since did not need is shed within Window
// hand-backs.
func TestRecordReserveIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("a 65,536-rank run")
	}
	bufpool.DrainReserve()
	defer bufpool.DrainReserve()
	large, small := mustCluster(t, 4096, 16), mustCluster(t, 2, 2)
	large.SetEngine(EngineTasks)
	small.SetEngine(EngineTasks)
	barrier := func(tc *TComm, done func()) { tc.Barrier(func(error) { done() }) }
	tasks := bufpool.Slabs[sim.Task]()
	if _, err := large.RunT(SRM, barrier); err != nil {
		t.Fatal(err)
	}
	if err := bufpool.CheckReserve(); err != nil {
		t.Fatal(err)
	}
	kept := bufpool.Slabs[sim.Task]()
	if drew := kept.Drawn - tasks.Drawn; kept.Spare == 0 || uint64(kept.Spare) >= drew {
		t.Fatalf("%d task slabs spare after a run that drew %d: want a part of them kept and the rest dropped", kept.Spare, drew)
	}
	for k := 0; k < bufpool.Window; k++ {
		if _, err := small.RunT(SRM, barrier); err != nil {
			t.Fatal(err)
		}
	}
	if all := bufpool.Reserve().Slabs.Spare; all > 16 {
		t.Errorf("%d slabs spare after %d runs of four ranks (%d of tasks after the large run), want what such a run needs", all, bufpool.Window, kept.Spare)
	}
}

// TestStaleHandleCrashes: a handle a body kept past its run is cut off from the
// simulation when the run ends. The rank's task is by then a record of the
// reserve, or of the run that drew it next; a Compute or a collective through
// the stale handle would drive that run's task. It crashes instead — through
// the world handle, a sub-communicator's and a request, from both forms of
// body, with the next run in flight on another goroutine, which ends none the
// worse.
func TestStaleHandleCrashes(t *testing.T) {
	crashes := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s through a handle kept past its run did not crash", name)
			}
		}()
		fn()
	}
	cl := mustCluster(t, 2, 4)
	half := []int{0, 1, 2, 3}
	word := make([]byte, 8)

	// The next run: every rank's task alive, rank 0 held inside its body.
	inFlight := func() (release func()) {
		started, hold, ended := make(chan struct{}), make(chan struct{}), make(chan error)
		go func() {
			sums := make([]byte, 8*8)
			_, err := cl.RunT(SRM, func(tc *TComm, done func()) {
				r := tc.Rank()
				tc.Compute(1, func() {
					if r == 0 {
						close(started)
						<-hold
					}
					tc.Allreduce(Int64Bytes([]int64{int64(r)}), sums[8*r:8*r+8], Int64, Sum, func(err error) {
						if err != nil || Int64s(sums[8*r : 8*r+8])[0] != 28 {
							panic("the run in flight read a wrong sum")
						}
						done()
					})
				})
			})
			ended <- err
		}()
		<-started
		return func() {
			close(hold)
			if err := <-ended; err != nil {
				t.Errorf("the run in flight beside the stale handles: %v", err)
			}
		}
	}

	var world, sub *Comm
	var req *Request
	if _, err := cl.Run(SRM, func(c *Comm) {
		if c.Rank() == 3 {
			world, sub = c, c.Sub(half)
			req = c.IBarrier()
			if err := req.Wait(); err != nil {
				panic(err)
			}
		} else {
			if c.Rank() < 4 {
				c.Sub(half)
			}
			c.IBarrier().Wait()
		}
	}); err != nil {
		t.Fatal(err)
	}
	cl.SetEngine(EngineTasks)
	release := inFlight()
	crashes("Comm.Compute", func() { world.Compute(1) })
	crashes("Comm.Barrier", func() { world.Barrier() })
	crashes("a sub-communicator's Bcast", func() { sub.Bcast(word, 0) })
	crashes("Comm.IBarrier", func() { world.IBarrier() })
	crashes("Request.Wait", func() { req.Wait() })
	release()

	var tworld, tsub *TComm
	var treq *TRequest
	if _, err := cl.RunT(SRM, func(tc *TComm, done func()) {
		s := tc
		if tc.Rank() < 4 {
			s = tc.Sub(half)
		}
		tc.IBarrier(func(q *TRequest) {
			if tc.Rank() == 3 {
				tworld, tsub, treq = tc, s, q
			}
			q.Wait(func(err error) {
				if err != nil {
					panic(err)
				}
				done()
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	release = inFlight()
	crashes("TComm.Compute", func() { tworld.Compute(1, func() {}) })
	crashes("TComm.Barrier", func() { tworld.Barrier(func(error) {}) })
	crashes("a sub-communicator's Bcast", func() { tsub.Bcast(word, 0, func(error) {}) })
	crashes("TComm.IBarrier", func() { tworld.IBarrier(func(*TRequest) {}) })
	crashes("TRequest.Wait", func() { treq.Wait(func(error) {}) })
	release()
}
