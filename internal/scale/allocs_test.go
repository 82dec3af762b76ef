package scale

import (
	"runtime"
	"testing"

	"srmcoll/internal/machine"
)

// TestTasksEngineAllocGuard is the CPS-garbage regression guard: it pins the
// host allocations per simulator event of a run. The state
// machines and pooled continuation frames brought the steady-state figure
// from ~4.4 allocs/event (closure-per-step CPS, commit 730ec74) down to
// ~2.9 at a million ranks; single-object flags and counters and one-value
// wait frames then took this 16,384-rank shape from 1.60 to 0.97; chunked
// tasks and queue items, the endpoint slab and the recycled put-delivery frame
// took it to 0.65, with nothing changed in this package; frames that keep their
// bound methods through the reserve and the run's per-rank and per-node memory
// cut from one block per kind took it to 0.143 (read as 0.082 at go1.24);
// records that are their own continuations, binding nothing when their memory
// is fresh, took it to 0.0112. The bound is that figure plus 10 %: it catches
// any slide back toward allocating closures on the hot park/copy/put paths or
// toward an object per rank record. The guard skips
// under the race detector, which slows the run without changing what it
// counts; it runs in CI's plain allocation step instead.
func TestTasksEngineAllocGuard(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	cfg := Config{
		Machine: machine.ColonySP(2048, 8), // 16,384 ranks
		Bytes:   64,
		Reps:    2,
	}
	// Warm-up run: leaves the reserve the frames and records a run needs, so
	// the measured run sees steady-state behavior.
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	perEvent := float64(allocs) / float64(res.Events)
	t.Logf("allocs=%d events=%d allocs/event=%.3f", allocs, res.Events, perEvent)

	if limit := 0.0124; perEvent > limit {
		t.Errorf("allocs/event = %.4f, want <= %.4f (CPS garbage regression)", perEvent, limit)
	}
}
