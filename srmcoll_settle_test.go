package srmcoll

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRunSettles pins the rule at the end of Run and RunT: a run whose pool
// took settleAfter bytes or more from the allocator collects them before it
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
}
