package srmcoll

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/core"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// mallocsOf returns the heap objects fn allocates: the least of three runs, so
// that what the runtime allocates on its own account beside one of them does
// not count.
func mallocsOf(fn func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestRunTAllocsPerRank holds a RunT run to what it allocates per rank
// now that its records come out of run-scoped slabs and chunks: the benchmark's
// rank_ladder body — bcast, allreduce, barrier on 64-byte payloads, eight tasks
// a node — at 4,096 and at 16,384 ranks. The collector's own pacing is off, so
// that the counts repeat. Two forced collections before a warm run change
// nothing: what a run recycles waits in the reserve, which no collection
// empties.
//
// Recorded: 4.3 objects per rank at both 4,096 and 16,384 ranks (go1.24),
// since a record is its own continuation and binds no method value; 5.3 and
// 6.0 before, since an operation state's records are arrays of the operation, not objects
// per node, and a calendar bucket grows out of slabs; 7.1 and 7.6 before, since
// frames keep their bound methods through the reserve and a layout's node
// lists share one array; 10.2 and 10.5 before that, 12.5 and 12.7 until the
// nodes of an operation shared one tree and a calendar bucket started with
// carved room. The same test read 41.8 and 43.5 at the commit before the slabs
// (400607f), where every task, executor, endpoint, flag, counter, request
// stream and handle was a heap object of its own, a blocking TComm collective
// bound six closures and a remote put two: the second bound below is 0.55 of
// that.
func TestRunTAllocsPerRank(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const recorded, parent = 4.3, 41.8
	var perRank []float64
	for _, ranks := range []int{4096, 16384} {
		run := ladderRun(t, ranks)
		n := mallocsOf(run)
		per := float64(n) / float64(ranks)
		t.Logf("%d ranks: %d objects, %.2f per rank", ranks, n, per)
		collected := float64(mallocsOf(func() {
			runtime.GC()
			runtime.GC()
			run()
		})) / float64(ranks)
		if collected > per+0.1 {
			t.Errorf("%d ranks: %.2f objects per rank after two collections, %.2f without them: want at most 0.1 more", ranks, collected, per)
		}
		if per > recorded*1.05 || per > 0.55*parent {
			t.Errorf("%d ranks: %.2f objects per rank, want at most %.2f (5%% over the recorded %.1f) and %.2f (0.55 of the parent's %.1f)",
				ranks, per, recorded*1.05, recorded, 0.55*parent, parent)
		}
		perRank = append(perRank, per)
	}
	if d := perRank[1] - perRank[0]; d > 1 || d < -1 {
		t.Errorf("objects per rank move with the rank count: %.2f at 4,096 ranks, %.2f at 16,384", perRank[0], perRank[1])
	}
}

// ladderRun returns a RunT run of the benchmark's rank_ladder body — bcast,
// allreduce, barrier on 64-byte payloads, eight tasks a node — over ranks.
func ladderRun(t *testing.T, ranks int) func() {
	const bytes = 64
	cl := mustCluster(t, ranks/8, 8)
	send, buf, recv := make([]byte, ranks*bytes), make([]byte, ranks*bytes), make([]byte, ranks*bytes)
	row := func(b []byte, r int) []byte { return b[r*bytes : (r+1)*bytes : (r+1)*bytes] }
	fail := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	body := func(tc *TComm, done func()) {
		r := tc.Rank()
		tc.Bcast(row(buf, r), 0, func(err error) {
			fail(err)
			tc.Allreduce(row(send, r), row(recv, r), Float64, Sum, func(err error) {
				fail(err)
				tc.Barrier(func(err error) {
					fail(err)
					done()
				})
			})
		})
	}
	return func() {
		if _, err := cl.RunT(SRM, body); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunTColdAllocsLikeWarm: a RunT run right after the reserve was drained
// makes the objects a warm run makes, plus the slabs the warm one found in the
// reserve, and little else: a record whose memory is fresh binds nothing, since
// it is its own continuation. The parent of that change made 2.22 more objects
// per rank cold than warm at 4,096 ranks and 1.45 at 16,384, one bound method
// value per fresh executor, facade frame and copy frame.
func TestRunTColdAllocsLikeWarm(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer bufpool.DrainReserve()
	for _, ranks := range []int{4096, 16384} {
		run := ladderRun(t, ranks)
		cold := mallocsOf(func() {
			bufpool.DrainReserve()
			run()
		})
		warm := mallocsOf(run)
		extra := (float64(cold) - float64(warm)) / float64(ranks)
		t.Logf("%d ranks: %d objects cold, %d warm: %.2f more per rank", ranks, cold, warm, extra)
		if extra > 0.3 {
			t.Errorf("%d ranks: a cold run makes %.2f objects per rank more than a warm one, want at most 0.3", ranks, extra)
		}
	}
}

// TestBlockingTCommCallAllocatesNothing: what one more blocking collective
// costs a rank through the facade is what it costs in internal/core. Both are
// measured the same way, as the difference between a body of 2k barriers and
// one of k per extra call per rank, at 512 ranks; the handle's call frame,
// which is its own continuation, is warm after the first call, so the facade's
// quiesce check, trace span and fault-tolerance legs add no object to core's.
func TestBlockingTCommCallAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	const nodes, tpn, k = 64, 8, 8
	const ranks = nodes * tpn
	perCall := func(run func(calls int)) float64 {
		short := mallocsOf(func() { run(k) })
		long := mallocsOf(func() { run(2 * k) })
		return (float64(long) - float64(short)) / (k * ranks)
	}

	cl := mustCluster(t, nodes, tpn)
	facade := perCall(func(calls int) {
		_, err := cl.RunT(SRM, func(tc *TComm, done func()) {
			left := calls
			var next func(error)
			next = func(err error) {
				if err != nil {
					panic(err)
				}
				if left--; left < 0 {
					done()
					return
				}
				tc.Barrier(next)
			}
			next(nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	direct := perCall(func(calls int) {
		env := sim.NewEnv()
		m := machine.New(env, cl.Config())
		s := core.New(m, rma.NewDomain(m), core.Options{})
		for r := 0; r < ranks; r++ {
			r := r
			env.SpawnTask("rank", r, func(tk *sim.Task) {
				left := calls
				var next func()
				next = func() {
					if left--; left < 0 {
						return
					}
					s.BarrierT(tk, r, next)
				}
				next()
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("objects per extra barrier per rank: %.3f through TComm, %.3f in core", facade, direct)
	if d := facade - direct; d > 0.02 || d < -0.02 {
		t.Errorf("a warm TComm.Barrier costs %.3f objects per rank, core's BarrierT %.3f: the facade allocates per call", facade, direct)
	}
}

// TestBlockingCommCallAllocs: a blocking Comm collective is a shim over the
// continuation form now, the coroutine itself its continuation, and must
// not have started to allocate per call for it. Measured as above — the
// difference between a Run body of 2k allreduces and one of k, per extra call
// per rank, 8 bytes at 512 ranks. Recorded at the parent (28d282b), where the
// body ran the protocol on its own stack: 4.13 objects, the protocol's shared
// state and the waiter slices of its flags and counters. The shim adds none,
// and the one intrusive waiter list takes the slices away: 2.26 now.
func TestBlockingCommCallAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	const nodes, tpn, k, recorded = 64, 8, 8, 4.13
	const ranks = nodes * tpn
	cl := mustCluster(t, nodes, tpn)
	send, recv := make([]byte, 8*ranks), make([]byte, 8*ranks)
	run := func(calls int) uint64 {
		return mallocsOf(func() {
			_, err := cl.Run(SRM, func(c *Comm) {
				r := c.Rank()
				for i := 0; i < calls; i++ {
					if err := c.Allreduce(send[8*r:8*r+8], recv[8*r:8*r+8], Int64, Sum); err != nil {
						panic(err)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	per := (float64(run(2*k)) - float64(run(k))) / (k * ranks)
	t.Logf("objects per extra allreduce per rank: %.3f (recorded at the parent: %.3f)", per, recorded)
	if per > recorded {
		t.Errorf("a warm Comm.Allreduce costs %.3f objects per rank, want at most the parent's %.3f", per, recorded)
	}
}

// TestBaselineCallAllocs: what one more baseline collective costs a rank on the
// MPI point-to-point layer the baselines are written over. Measured like the
// blocking calls above — a Run body of 2k calls against one of k, per extra
// call per rank — for both flavors' Bcast and Allreduce on 4 nodes of 4, at
// 1 KiB, which goes eager over shared memory and over the network, and at
// 64 KiB, which goes by rendezvous over both (the run's Stats say so). At the
// parent of the change that pooled the layer's messages, receives and helper
// records and scheduled them as themselves, it read 4.70 (Bcast, 1 KiB), 7.88
// (Bcast, 64 KiB), 31.0 and 15.3 (IBM's Allreduce: recursive doubling, whose
// Sendrecv spawned a helper through a closure, then reduce and broadcast) and
// 9.38 and 15.3 (MPICH's Allreduce). Now it reads 0.000-0.016, and one object
// in the 128 extra calls is 0.008.
func TestBaselineCallAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	const nodes, tpn, k, bound = 4, 4, 8, 0.05
	const ranks = nodes * tpn
	cl := mustCluster(t, nodes, tpn)
	for _, impl := range []Impl{IBMMPI, MPICHMPI} {
		for _, allreduce := range []bool{false, true} {
			for _, size := range []int{1 << 10, 64 << 10} {
				send, recv := make([]byte, size*ranks), make([]byte, size*ranks)
				var stats trace.Stats
				run := func(calls int) uint64 {
					return mallocsOf(func() {
						res, err := cl.Run(impl, func(c *Comm) {
							r := c.Rank()
							row := func(b []byte) []byte { return b[size*r : size*(r+1)] }
							for i := 0; i < calls; i++ {
								var err error
								if allreduce {
									err = c.Allreduce(row(send), row(recv), Float64, Sum)
								} else {
									err = c.Bcast(row(recv), 0)
								}
								if err != nil {
									panic(err)
								}
							}
						})
						if err != nil {
							t.Fatal(err)
						}
						stats = res.Stats
					})
				}
				per := (float64(run(2*k)) - float64(run(k))) / (k * ranks)
				op := "Bcast"
				if allreduce {
					op = "Allreduce"
				}
				name := fmt.Sprintf("%s %s %d B", impl, op, size)
				if eager := size == 1<<10; stats.MPIShmSends == 0 || stats.MPIShmSends == stats.MPISends ||
					eager && stats.RndvSends > 0 || !eager && stats.EagerSends > 0 {
					t.Fatalf("%s: %d sends, %d over shared memory, %d eager, %d rendezvous: want one protocol over both devices",
						name, stats.MPISends, stats.MPIShmSends, stats.EagerSends, stats.RndvSends)
				}
				t.Logf("%s: %.3f objects per extra call per rank", name, per)
				if per > bound {
					t.Errorf("%s: a call costs %.3f objects per rank, want at most %.3f", name, per, bound)
				}
			}
		}
	}
}

// TestRequestAllocs: what one more non-blocking collective costs a rank, issue
// to Wait, from a Run body and from a RunT body, traced and
// not. Measured like the blocking calls above — a body that has 2k IAllreduce
// of 8 bytes outstanding before it waits for them against one that has k, per
// extra request per rank, 8 nodes of 8 — and held to what it reads now. At the
// commit before the facade was written once (dd63289) it read 24.1, 30.1, 19.1
// and 26.1: there a Run body's request ran on a helper process, which beside k
// predecessors still alive needs a coroutine of its own, and cost more than a
// continuation body's; now an SRM helper is a plain task under either. The
// continuation body's figures include the two closures it makes per request
// itself. Before a request became its helper's first step and its wait's
// continuation, drew its completion event in place and left its arguments on
// the stack unless the MaxOutstanding bound holds it back, it read 5.46, 9.47,
// 7.46 and 11.48: four objects a request more than now.
//
// This is tier-1's proxy for the benchmark's train_overlap, whose 12,288
// requests a repetition make about 101k objects: its 5 % bound on
// allocs_per_rep is 0.41 objects a request.
func TestRequestAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	const nodes, tpn, k = 8, 8, 8
	const ranks = nodes * tpn
	send, recv := make([]byte, 8*2*k*ranks), make([]byte, 8*2*k*ranks)
	row := func(b []byte, r, i int) []byte { o := 8 * (2*k*r + i); return b[o : o+8 : o+8] }
	fail := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	blocking := func(cl *Cluster, n int) error {
		_, err := cl.Run(SRM, func(c *Comm) {
			reqs := make([]*Request, n)
			for i := range reqs {
				reqs[i] = c.IAllreduce(row(send, c.Rank(), i), row(recv, c.Rank(), i), Int64, Sum)
			}
			for _, rq := range reqs {
				fail(rq.Wait())
			}
		})
		return err
	}
	continuation := func(cl *Cluster, n int) error {
		_, err := cl.RunT(SRM, func(tc *TComm, done func()) {
			reqs := make([]*TRequest, 0, n)
			var issue, wait func()
			issue = func() {
				if i := len(reqs); i < n {
					tc.IAllreduce(row(send, tc.Rank(), i), row(recv, tc.Rank(), i), Int64, Sum, func(rq *TRequest) {
						reqs = append(reqs, rq)
						issue()
					})
					return
				}
				wait()
			}
			wait = func() {
				if len(reqs) == 0 {
					done()
					return
				}
				rq := reqs[0]
				reqs = reqs[1:]
				rq.Wait(func(err error) {
					fail(err)
					wait()
				})
			}
			issue()
		})
		return err
	}
	for _, tc := range []struct {
		name     string
		run      func(*Cluster, int) error
		traced   bool
		recorded float64
	}{
		{"Run", blocking, false, 1.5},
		{"Run/traced", blocking, true, 5.5},
		{"RunT/tasks", continuation, false, 3.5},
		{"RunT/tasks/traced", continuation, true, 7.5},
	} {
		cl := mustCluster(t, nodes, tpn)
		cl.SetTracing(tc.traced)
		objects := func(n int) float64 {
			return float64(mallocsOf(func() {
				if err := tc.run(cl, n); err != nil {
					t.Fatal(err)
				}
			}))
		}
		per := (objects(2*k) - objects(k)) / (k * ranks)
		t.Logf("%s: %.2f objects per extra IAllreduce+Wait per rank (recorded: %.1f)", tc.name, per, tc.recorded)
		if per > tc.recorded {
			t.Errorf("%s: a request costs %.2f objects per rank, want at most the recorded %.1f", tc.name, per, tc.recorded)
		}
	}
}

// TestStormRunAllocs holds one run of the benchmark's fault_storm to what it
// allocates now that the fault path builds nothing per put, per bucket and per
// call: 64 ranks on 16 nodes, ten rounds of the survivor protocol's body —
// compute, then a 256-byte broadcast or allreduce in turn, then Shrink and
// Agree — over a wire that loses one put in a hundred under reliable delivery,
// fault tolerance on, nobody crashing. The body is bench/fault_storm.go's, on
// rows of shared arrays, so what is counted is the library's (and the copy of
// the member list Comm.Members returns by contract, five a rank).
//
// Recorded: 1,456 objects a run (go1.24), since a process comes from a slab of
// its Env's; 1,518 before, since a record is its own
// continuation and binds no method value; 1,646 before, since an operation
// state's records are arrays of the operation, not objects per node; 2,575
// before that, since frames
// keep their bound methods through the reserve and the deferred-delivery queue
// its storage; 3,682 before those.
// The same test read 7,778 at the commit before 699586d: a reliable put was a
// nest of seven closures and a map entry, a bucket of the calendar grew its
// first array from nothing, and every operation state built its node trees and
// embedding anew.
func TestStormRunAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const recorded, parent = 1456, 7778
	run := stormSurvivorRun(t)
	var res *Result
	n := mallocsOf(func() { res = run() })
	if res.Stats.Retries == 0 || len(res.Repairs) != 2 {
		t.Fatalf("the run retransmitted %d puts and completed %d rendezvous: want a lossy wire and one Shrink and Agree", res.Stats.Retries, len(res.Repairs))
	}
	t.Logf("%d objects for %d events, %d puts, %d retries", n, res.Events, res.Stats.Puts, res.Stats.Retries)
	if float64(n) > recorded*1.05 || float64(n) > 0.6*parent {
		t.Errorf("%d objects a run, want at most %.0f (5%% over the recorded %d) and %.0f (0.6 of the parent's %d)",
			n, recorded*1.05, recorded, 0.6*parent, parent)
	}
}

// TestStormRunAllocBytes holds the same run to the bytes it allocates once the
// reserve is warm, which is what paces the collector on a heap as small as the
// benchmark's fault_storm keeps: its tasks, queue items, calendar, put frames
// and executors come from slabs the run before handed back, and the flags and
// counters of an operation from the slabs the operation before it returned.
//
// Recorded at the parent (2ebd22d), where all of them were new memory every
// run: 872,376 bytes (runtime.MemStats.TotalAlloc, which is /gc/heap/allocs:bytes
// read exactly; go1.24). What is left is the facade's and the protocol states'.
func TestStormRunAllocBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const parent = 872376
	run := stormSurvivorRun(t)
	run() // leaves the reserve what a run needs
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d bytes a warm run", best)
	if float64(best) > 0.55*parent {
		t.Errorf("%d bytes a warm run, want at most %.0f (0.55 of the parent's %d)", best, 0.55*parent, parent)
	}
}

// stormSurvivorRun returns one run of the benchmark's fault_storm survivor
// body, for the two guards above.
func stormSurvivorRun(t *testing.T) func() *Result {
	const nodes, tpn, rounds, bytes, compute = 16, 4, 10, 256, 25.0
	const ranks = nodes * tpn
	send, buf, recv := make([]byte, ranks*bytes), make([]byte, ranks*bytes), make([]byte, ranks*bytes)
	row := func(b []byte, r int) []byte { return b[r*bytes : (r+1)*bytes : (r+1)*bytes] }
	body := func(c *Comm) {
		comm, r := c, c.Rank()
		done := 0
		for {
			if done < rounds {
				var err error
				c.Compute(compute)
				if done%2 == 0 {
					err = comm.Bcast(row(buf, r), comm.Members()[0])
				} else {
					err = comm.Allreduce(row(send, r), row(recv, r), Float64, Sum)
				}
				if err == nil {
					done++
					continue
				}
				panic(err) // nobody crashes
			}
			nc, err := comm.Shrink()
			if err != nil {
				panic(err)
			}
			agreed, err := nc.Agree(1<<done - 1)
			if err != nil {
				panic(err)
			}
			comm = nc
			for done = 0; agreed&1 == 1; agreed >>= 1 {
				done++
			}
			if done >= rounds {
				return
			}
		}
	}
	cl := mustCluster(t, nodes, tpn)
	cl.SetFaultPlan(FaultPlan{Seed: 0x5eed, Deadline: 1e6, Drop: 0.01, Reliable: true})
	cl.SetFaultTolerance(DefaultFTConfig())
	return func() *Result {
		res, err := cl.Run(SRM, body)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}
