package exp

import (
	"encoding/json"
	"testing"
)

// TestChaosCampaignZeroHangs is the acceptance bar for the fault-tolerance
// subsystem: the full 48-run campaign — crashes at random virtual times
// during alternating bcast/allreduce rounds on 8-64 ranks, with wire drops
// and stall windows mixed in — must complete every run on the survivors.
// No stalls, no deadlocks, no unexpected errors.
func TestChaosCampaignZeroHangs(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	cfg := DefaultChaosConfig()
	rep := RunChaos(cfg)
	if want := len(cfg.Ranks) * len(cfg.Rates) * cfg.Seeds; len(rep.Runs) != want {
		t.Fatalf("campaign ran %d runs, want %d", len(rep.Runs), want)
	}
	for _, run := range rep.Runs {
		if run.Outcome != "ok" {
			t.Errorf("run (ranks=%d rate=%g seed=%#x): outcome %q: %s",
				run.Ranks, run.Rate, run.Seed, run.Outcome, run.Detail)
		}
	}
	var crashes, failures int
	for _, run := range rep.Runs {
		crashes += run.Crashes
		failures += run.Failures
	}
	if crashes == 0 {
		t.Fatal("campaign scheduled no crashes; the grid exercises nothing")
	}
	if failures < crashes {
		t.Errorf("campaign declared %d failures for %d scheduled crashes; every crash before run end must be detected", failures, crashes)
	}
	// Detection latency is bounded by the analytic detector: at most one
	// heartbeat period plus the suspicion timeout (50 + 100 us defaults).
	for _, run := range rep.Runs {
		if run.Failures == 0 {
			continue
		}
		if run.Detect <= 0 || run.Detect > 150 {
			t.Errorf("run (ranks=%d rate=%g seed=%#x): mean detect latency %g us, want (0, 150]",
				run.Ranks, run.Rate, run.Seed, run.Detect)
		}
		if run.Repairs == 0 {
			t.Errorf("run (ranks=%d rate=%g seed=%#x): %d failures but no repairs recorded",
				run.Ranks, run.Rate, run.Seed, run.Failures)
		}
	}
}

// TestChaosReportDeterministic re-runs the quick campaign serially and with
// eight workers; the marshaled reports must be byte-identical — the -j flag
// must never change results.
func TestChaosReportDeterministic(t *testing.T) {
	cfg := QuickChaosConfig()
	old := Workers()
	defer SetWorkers(old)

	SetWorkers(1)
	serial, err := json.MarshalIndent(RunChaos(cfg), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(8)
	wide, err := json.MarshalIndent(RunChaos(cfg), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(wide) {
		t.Fatalf("chaos report differs between -j1 and -j8:\n-j1: %d bytes\n-j8: %d bytes", len(serial), len(wide))
	}
	var rep ChaosReport
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if rep.Hangs() != 0 {
		t.Fatalf("quick campaign had %d non-clean runs", rep.Hangs())
	}
}

// TestChaosTableShape pins the table layout srmbench chaos
// prints: one row per grid point, completion in the "ok" column.
func TestChaosTableShape(t *testing.T) {
	cfg := QuickChaosConfig()
	rep := RunChaos(cfg)
	tab := ChaosTable(rep)
	if want := len(cfg.Ranks) * len(cfg.Rates); len(tab.Rows) != want {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), want)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Cols) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tab.Cols))
		}
		if row[2] != float64(cfg.Seeds) || row[3] != row[2] {
			t.Errorf("row %d: runs=%g ok=%g, want both %d", i, row[2], row[3], cfg.Seeds)
		}
	}
}
