package srmcoll

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRunSettles pins the rule at the end of Run and RunT: a run that leaves
// settleAfter bytes or more behind — buffers its pool took from the allocator,
// or the chunks its rank records were carved from — collects them before it
// returns, on either engine, and a small run leaves the collector alone.
// With the collector's own pacing switched off, every cycle counted here is
// one settle forced.
func TestRunSettles(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cycles := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumGC
	}

	before := cycles()
	settle(settleAfter - 1)
	if got := cycles() - before; got != 0 {
		t.Errorf("settle below the threshold forced %d cycles, want 0", got)
	}
	settle(settleAfter)
	if got := cycles() - before; got != 1 {
		t.Errorf("settle at the threshold forced %d cycles, want 1", got)
	}

	// Broadcasting 16 MiB to sixteen ranks draws about 21 MiB of slots and
	// snapshots. The ranks run one at a time and all receive the same bytes,
	// so they can share the one buffer.
	cl := mustCluster(t, 4, 4)
	for _, tc := range []struct {
		name   string
		engine Engine
		bytes  int
		want   uint32
	}{
		{"procs/small", EngineProcs, 4 << 10, 0},
		{"tasks/small", EngineTasks, 4 << 10, 0},
		{"procs/large", EngineProcs, 16 << 20, 1},
		{"tasks/large", EngineTasks, 16 << 20, 1},
	} {
		buf := make([]byte, tc.bytes)
		cl.SetEngine(tc.engine)
		before := cycles()
		_, err := cl.RunT(SRM, func(c *TComm, done func()) {
			c.Bcast(buf, 0, func(err error) {
				if err != nil {
					t.Error(err)
				}
				done()
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cycles() - before; got != tc.want {
			t.Errorf("%s: the run forced %d cycles, want %d", tc.name, got, tc.want)
		}
	}

	// 16,384 ranks moving 64 bytes each draw next to nothing from the buffer
	// pool and some 30 MB for tasks, executors, flags and counters: settle
	// used to weigh the payload alone and leave all of it lying.
	big := mustCluster(t, 2048, 8)
	big.SetEngine(EngineTasks)
	word := make([]byte, 64)
	before = cycles()
	if _, err := big.RunT(SRM, func(c *TComm, done func()) {
		c.Bcast(word, 0, func(error) { done() })
	}); err != nil {
		t.Fatal(err)
	}
	if got := cycles() - before; got != 1 {
		t.Errorf("tasks/16384 ranks: the run forced %d cycles, want 1", got)
	}
}

// TestChaosRunsNeverSettle: the benchmark's fault_storm is 384 runs of 8 to 64
// ranks, and a collection after each of them cost it 11 % of its wall time
// (ROADMAP item 4). Counting the rank records as garbage must not start that:
// the largest and most eventful of those runs — 64 ranks, a crash rate of 0.3,
// ten rounds and the repairs — leaves less than a sixteenth of the threshold
// behind, on either engine.
func TestChaosRunsNeverSettle(t *testing.T) {
	for k := int64(0); k < 4; k++ {
		cl := mustCluster(t, 16, 4)
		cl.SetFaultTolerance(DefaultFTConfig())
		plan := chaosCorpusPlan(64, 0.3, 64000+100*k+30)
		cl.SetFaultPlan(plan)
		_, procs, err := cl.run(SRM, EngineProcs, func(sm *simulation) { sm.spawnProcs(chaosLoopBodyCompute(10, 256, 25, nil)) })
		if err != nil {
			t.Fatal(err)
		}
		_, tasks, err := cl.run(SRM, EngineTasks, func(sm *simulation) { sm.spawnTasks(chaosLoopBodyT(10, 256, 25)) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %d KiB of garbage on Procs, %d KiB on Tasks", k, procs>>10, tasks>>10)
		if limit := int64(settleAfter / 16); procs >= limit || tasks >= limit {
			t.Errorf("seed %d: a 64-rank chaos run leaves %d (Procs) and %d (Tasks) bytes behind, want less than %d",
				k, procs, tasks, limit)
		}
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
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, eng := range []Engine{EngineProcs, EngineTasks} {
		cl.SetEngine(eng)
		before := heap()
		res, err := cl.RunT(SRM, func(tc *TComm, done func()) {
			r := tc.Rank()
			tc.Allreduce(send[r], recv[r], Float64, Sum, func(error) {
				tc.Allreduce(send[r], recv[r], Float64, Sum, func(error) { done() })
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		held := heap() - before
		t.Logf("%s: %d KiB held by a Result of %d spans", eng, held>>10, len(res.Trace.Spans()))
		if held > 1<<20 {
			t.Errorf("%s: the Result keeps %d KiB alive, want at most 1 MiB: the simulation is still reachable", eng, held>>10)
		}
		runtime.KeepAlive(res)
	}
	runtime.KeepAlive(send)
	runtime.KeepAlive(recv)
}
