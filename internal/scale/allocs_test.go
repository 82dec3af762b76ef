package scale

import (
	"runtime"
	"testing"

	"srmcoll/internal/machine"
)

// TestTasksEngineAllocGuard is the CPS-garbage regression guard: it pins the
// host allocations per simulator event for a Tasks-engine run. The state
// machines and pooled continuation frames brought the steady-state figure
// from ~4.4 allocs/event (closure-per-step CPS, commit 730ec74) down to
// ~2.9 at a million ranks; single-object flags and counters and one-value
// wait frames then took this 16,384-rank shape from 1.60 to 0.97; chunked
// tasks and queue items, the endpoint slab and the recycled put-delivery frame
// took it to 0.65, with nothing changed in this package. The bound is that
// figure plus 10 %: it catches any slide back toward allocating closures on
// the hot park/copy/put paths or toward an object per rank record, and still
// covers runtime jitter (sync.Pool drains across GCs). Under the race detector
// the pools drop items at random (0.72); the guard runs in CI's plain
// allocation step instead.
func TestTasksEngineAllocGuard(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := Config{
		Machine: machine.ColonySP(2048, 8), // 16,384 ranks
		Bytes:   64,
		Reps:    2,
		Engine:  Tasks,
	}
	// Warm-up run: populates the frame pools and the scheduler free lists so
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

	if limit := 0.72; perEvent > limit {
		t.Errorf("allocs/event = %.3f, want <= %.2f (CPS garbage regression)", perEvent, limit)
	}
}
