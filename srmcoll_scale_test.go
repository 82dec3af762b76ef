package srmcoll

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The public ScaleAllreduce surface: the deprecated engine setting,
// fault-plan plumbing, and the crash-plan rejection. The task body's
// equivalence with its straight-line oracle lives in internal/scale.

// TestScaleAllreduceEnginesAgree: ScaleOptions.Engine selects nothing. The
// value ScaleProcs had (1) runs exactly what ScaleTasks, the zero value, runs.
func TestScaleAllreduceEnginesAgree(t *testing.T) {
	cl := mustCluster(t, 8, 4)
	var res []*ScaleResult
	for _, engine := range []ScaleEngine{ScaleTasks, 1} {
		r, err := cl.ScaleAllreduce(ScaleOptions{Bytes: 256, Reps: 2, Verify: true, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, r)
	}
	for _, r := range res[1:] {
		if !reflect.DeepEqual(r, res[0]) {
			t.Errorf("the engine setting changed the run:\n%+v\n%+v", res[0], r)
		}
	}
}

func TestScaleAllreduceUsesClusterFaultPlan(t *testing.T) {
	cl := mustCluster(t, 4, 2)
	cl.SetFaultPlan(FaultPlan{Seed: 11, Drop: 0.2, Reliable: true})
	res, err := cl.ScaleAllreduce(ScaleOptions{Bytes: 128, Reps: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Drops == 0 || res.Stats.Retries == 0 {
		t.Errorf("fault plan not applied: %+v", res.Stats)
	}
}

func TestScaleAllreduceRejectsCrashPlan(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	cl.SetFaultPlan(FaultPlan{Crashes: []Crash{{Rank: 1, At: 10}}})
	_, err := cl.ScaleAllreduce(ScaleOptions{Bytes: 64})
	if err == nil || !strings.Contains(err.Error(), "chaos runner") {
		t.Fatalf("err = %v, want crash-plan rejection", err)
	}
}

// A deadline stops ScaleAllreduce the way it stops Run: with a *StallError
// that names the blocked ranks. internal/scale holds the report to the one its
// oracle gives.
func TestScaleAllreduceDeadlineIsStallError(t *testing.T) {
	cl := mustCluster(t, 4, 4)
	cl.SetFaultPlan(FaultPlan{Seed: 3, Drop: 0.5, Reliable: true, Deadline: 5})
	_, err := cl.ScaleAllreduce(ScaleOptions{Bytes: 64})
	var se *StallError
	if !errors.As(err, &se) || !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want a *StallError matching ErrDeadline", err)
	}
	if se.Time > 5 || len(se.Blocked) == 0 {
		t.Errorf("stalled at t=%v with %d blocked, want t <= 5 and blocked ranks", se.Time, len(se.Blocked))
	}
}
