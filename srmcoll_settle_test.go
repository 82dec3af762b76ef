package srmcoll

import (
	"runtime"
	"runtime/debug"
	"testing"

	"srmcoll/internal/bufpool"
)

// forcedCycles switches the collector's own pacing off until the test ends and
// completes one cycle, so that the sum settle keeps starts from nothing at its
// next call; the function it returns counts the cycles completed since, every
// one of which a settle has forced.
func forcedCycles(t *testing.T) func() uint64 {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	runtime.GC()
	_, base := heapCounters()
	return func() uint64 {
		_, cycles := heapCounters()
		return cycles - base
	}
}

// TestRunSettles pins the rule at the end of Run and RunT. settle weighs what
// the run allocated: one that allocates settleAfter bytes or more — payload
// memory the reserve could not supply, or the records of sixteen thousand
// ranks — is collected before it returns, on either engine; the same run
// again finds its payload memory in the reserve, allocates next to nothing
// and leaves the collector alone; smaller runs add up until their sum crosses
// the line; and a cycle the collector completed in between restarts the sum.
func TestRunSettles(t *testing.T) {
	forced := forcedCycles(t)
	weigh := func(allocated uint64) {
		_, cycles := heapCounters()
		settle(allocated, cycles)
	}
	weigh(settleAfter / 2)
	weigh(settleAfter/2 - 1)
	if got := forced(); got != 0 {
		t.Fatalf("runs that allocated one byte less than the threshold between them forced %d cycles, want 0", got)
	}
	weigh(1)
	if got := forced(); got != 1 {
		t.Fatalf("the run that took the sum to the threshold forced %d cycles, want 1", got)
	}
	weigh(settleAfter - 1) // starts over after a forced cycle
	runtime.GC()           // stands for a cycle of the collector's own
	weigh(settleAfter - 1) // and after one of those
	if got := forced(); got != 2 {
		t.Fatalf("a cycle between two runs did not restart the sum: %d cycles, want the first forced one and this test's own", got)
	}
	weigh(1)
	if got := forced(); got != 3 {
		t.Fatalf("the sum restarted by a cycle does not include the run weighed after it: %d cycles, want 3", got)
	}

	// Reducing 8 MiB over sixteen ranks draws about 27 MiB of slots and
	// staging buffers from the pool. The ranks can share the send buffer, and
	// only the root has a receive buffer.
	cl := mustCluster(t, 4, 4)
	for _, tc := range []struct {
		name  string
		run   func(*Cluster, Impl, func(*TComm, func())) (*Result, error)
		bytes int
		cold  bool // the reserve is emptied first
		want  uint64
	}{
		{"procs/small", runTBlocking, 4 << 10, true, 0},
		{"tasks/small", (*Cluster).RunT, 4 << 10, true, 0},
		{"procs/large/cold", runTBlocking, 8 << 20, true, 1},
		{"procs/large/warm", runTBlocking, 8 << 20, false, 0},
		{"tasks/large/cold", (*Cluster).RunT, 8 << 20, true, 1},
		{"tasks/large/warm", (*Cluster).RunT, 8 << 20, false, 0},
	} {
		send, recv := make([]byte, tc.bytes), make([]byte, tc.bytes)
		if tc.cold {
			bufpool.DrainReserve()
		}
		before := forced()
		_, err := tc.run(cl, SRM, func(c *TComm, done func()) {
			var out []byte
			if c.Rank() == 0 {
				out = recv
			}
			c.Reduce(send, out, Float64, Sum, 0, func(err error) {
				if err != nil {
					t.Error(err)
				}
				done()
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := forced() - before; got != tc.want {
			t.Errorf("%s: the run forced %d cycles, want %d", tc.name, got, tc.want)
		}
	}

	// 16,384 ranks moving 64 bytes each draw next to nothing from the buffer
	// pool and allocate some 30 MB of tasks, executors, flags and counters. A
	// quarter as many ranks stay below the threshold and cross it together.
	word := make([]byte, 64)
	bcast := func(nodes int) {
		big := mustCluster(t, nodes, 8)
		if _, err := big.RunT(SRM, func(c *TComm, done func()) {
			c.Bcast(word, 0, func(error) { done() })
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := forced()
	bcast(2048)
	if got := forced() - before; got != 1 {
		t.Errorf("tasks/16384 ranks: the run forced %d cycles, want 1", got)
	}
	before = forced()
	runs := 0
	for forced() == before && runs < 16 {
		bcast(512)
		runs++
	}
	if runs < 2 || runs == 16 {
		t.Errorf("tasks/4096 ranks: the first cycle was forced by run %d, want one of the first few and not the first", runs)
	}
}

// TestChaosRunsNeverSettle: the benchmark's fault_storm is 384 runs of 8 to 64
// ranks, and a collection after each of them cost it 11 % of its wall time.
// The largest and most eventful of those runs — 64 ranks, a
// crash rate of 0.3, ten rounds and the repairs — allocates under 700 KiB on
// either engine, so eight of them back to back force nothing even with no
// cycle of the collector's own to restart the sum.
func TestChaosRunsNeverSettle(t *testing.T) {
	forced := forcedCycles(t)
	for k := int64(0); k < 4; k++ {
		cl := mustCluster(t, 16, 4)
		cl.SetFaultTolerance(DefaultFTConfig())
		cl.SetFaultPlan(chaosCorpusPlan(64, 0.3, 64000+100*k+30))
		start, _ := heapCounters()
		if _, err := cl.Run(SRM, chaosLoopBodyCompute(10, 256, 25, nil)); err != nil {
			t.Fatal(err)
		}
		mid, _ := heapCounters()
		if _, err := cl.RunT(SRM, chaosLoopBodyT(10, 256, 25)); err != nil {
			t.Fatal(err)
		}
		end, _ := heapCounters()
		t.Logf("seed %d: %d KiB allocated on Procs, %d KiB on Tasks", k, (mid-start)>>10, (end-mid)>>10)
	}
	if got := forced(); got != 0 {
		t.Errorf("eight 64-rank chaos runs forced %d cycles, want 0", got)
	}
}

// TestTracedRunReleasesSimulation: a traced run's Result holds the spans, and
// through them nothing else. The trace's clock used to be the environment's
// Now method, so a caller that kept the Result kept the Env, its task chunks,
// every finished task's last wait (a flag, a counter, a continuation), hence
// the machine and its buffer pool: 47 MB for this run with continuation
// bodies, and for every run once every body's actor is a Task.
func TestTracedRunReleasesSimulation(t *testing.T) {
	const ranks, size = 64, 256 << 10
	cl := mustCluster(t, ranks/4, 4)
	cl.SetVariant(Variant{Allreduce: AllreduceRHD})
	cl.SetTracing(true)
	send, recv := make([][]byte, ranks), make([][]byte, ranks)
	for r := range send {
		send[r], recv[r] = make([]byte, size), make([]byte, size)
	}
	heap := func() int64 {
		bufpool.DrainReserve() // the run's payload memory is kept, but not by the Result
		return int64(heapAfterCycle().HeapAlloc)
	}
	for _, form := range bodyForms {
		before := heap()
		res, err := form.run(cl, SRM, func(tc *TComm, done func()) {
			r := tc.Rank()
			tc.Allreduce(send[r], recv[r], Float64, Sum, func(error) {
				tc.Allreduce(send[r], recv[r], Float64, Sum, func(error) { done() })
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		held := heap() - before
		t.Logf("%s: %d KiB held by a Result of %d spans", form.name, held>>10, len(res.Trace.Spans()))
		if held > 1<<20 {
			t.Errorf("%s: the Result keeps %d KiB alive, want at most 1 MiB: the simulation is still reachable", form.name, held>>10)
		}
		runtime.KeepAlive(res)
	}
	runtime.KeepAlive(send)
	runtime.KeepAlive(recv)
}
