package scale

import (
	"math"
	"strings"
	"testing"

	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
)

func TestTasksEngineMidScale(t *testing.T) {
	// 4,096 ranks with verified data — the
	// shape the CI large-rank smoke job runs as a binary.
	res, err := Run(Config{
		Machine: machine.ColonySP(512, 8),
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
	// Protocol memory per rank stays a small multiple of the payload:
	// n·(1 + small/tpn) by construction.
	if got, limit := res.ProtoBytesPerRank(), 3.0*64; got > limit {
		t.Errorf("ProtoBytesPerRank = %.1f, want <= %.1f", got, limit)
	}
}

func TestScaleRejectsCrashPlans(t *testing.T) {
	_, err := Run(Config{
		Machine: machine.ColonySP(2, 2),
		Bytes:   64,
		Faults:  &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 10}}},
	})
	if err == nil || !strings.Contains(err.Error(), "chaos runner") {
		t.Fatalf("err = %v, want crash-plan rejection", err)
	}
}

func TestScaleInvalidMachine(t *testing.T) {
	if _, err := Run(Config{Machine: machine.Config{Nodes: 0, TasksPerNode: 4}}); err == nil {
		t.Fatal("invalid machine config accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	// Zero Bytes/Reps become 8 bytes and 1 rep; odd byte counts round up
	// to whole int64 elements.
	res, err := Run(Config{Machine: machine.ColonySP(2, 2), Bytes: 13, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Error("no events processed")
	}
}

// TestRunRejectsOverflowingSizes: a payload whose buffers overflow int, or a
// repetition count beyond the executor's int32 operands, is an error that
// names the field, not a makeslice panic or a wrapped flag value.
func TestRunRejectsOverflowingSizes(t *testing.T) {
	for _, c := range []struct {
		name        string
		bytes, reps int
		field       string
	}{
		{"bytes_maxint", math.MaxInt, 1, "Bytes"},
		{"bytes_maxint_minus_7", math.MaxInt - 7, 1, "Bytes"},
		{"bytes_block_overflow", math.MaxInt / 16, 1, "Bytes"},
		{"reps_past_int32", 8, math.MaxInt32 + 1, "Reps"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(Config{Machine: machine.ColonySP(2, 2), Bytes: c.bytes, Reps: c.reps})
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("err = %v, want one naming %s", err, c.field)
			}
		})
	}
}
