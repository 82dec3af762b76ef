package scale

import (
	"runtime"
	"testing"

	"srmcoll/internal/machine"
)

// TestTasksEngineCISmoke16k is the always-on large-rank gate: 16,384 verified
// ranks as state machines in well under a second of host time.
func TestTasksEngineCISmoke16k(t *testing.T) {
	res, err := Run(Config{
		Machine: machine.ColonySP(2048, 8),
		Bytes:   64,
		Reps:    1,
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Errorf("Time = %v", res.Time)
	}
	if got, limit := res.ProtoBytesPerRank(), 3.0*64; got > limit {
		t.Errorf("ProtoBytesPerRank = %.1f, want <= %.1f", got, limit)
	}
}

// TestTasksEngineMillionRanks runs the full 1,048,576-rank verified
// allreduce — the scale target of the state-machine ranks. A parked rank is a
// state-machine frame in one slab, not a goroutine stack, which is what
// keeps both wall time and memory CI-able at this scale. Skipped under
// -short; the CI scale job runs it explicitly.
func TestTasksEngineMillionRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-rank run skipped in -short mode")
	}
	res, err := Run(Config{
		Machine: machine.ColonySP(131072, 8),
		Bytes:   8,
		Reps:    1,
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.PerRank); got != 1<<20 {
		t.Fatalf("PerRank count = %d, want %d", got, 1<<20)
	}
	if res.Time <= 0 {
		t.Errorf("Time = %v", res.Time)
	}
	// Protocol memory stays bounded: n·(1 + small/tpn) per rank by
	// construction, independent of the rank count.
	if got, limit := res.ProtoBytesPerRank(), 3.0*8; got > limit {
		t.Errorf("ProtoBytesPerRank = %.1f, want <= %.1f", got, limit)
	}
	// The whole run — input/output vectors, protocol buffers, scheduler,
	// frames — must fit in a bounded heap, not a goroutine-stack blow-up.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if limit := uint64(4 << 30); ms.HeapSys > limit {
		t.Errorf("HeapSys = %d MiB after 1M-rank run, want < %d MiB",
			ms.HeapSys>>20, limit>>20)
	}
}
