package srmcoll

import (
	"errors"
	"strings"
	"testing"
)

// The public ScaleAllreduce surface: engine parity, fault-plan plumbing,
// and the crash-plan rejection. The exhaustive cross-engine equivalence
// matrix lives in internal/scale.

func TestScaleAllreduceEnginesAgree(t *testing.T) {
	cl := mustCluster(t, 8, 4)
	opt := ScaleOptions{Bytes: 256, Reps: 2, Verify: true}

	opt.Engine = ScaleProcs
	pr, err := cl.ScaleAllreduce(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Engine = ScaleTasks
	tr, err := cl.ScaleAllreduce(opt)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Time != tr.Time {
		t.Errorf("procs end at %v, tasks at %v", pr.Time, tr.Time)
	}
	if pr.Stats != tr.Stats {
		t.Errorf("stats diverge:\n procs %+v\n tasks %+v", pr.Stats, tr.Stats)
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
// that names the blocked ranks, the same on either engine.
func TestScaleAllreduceDeadlineIsStallError(t *testing.T) {
	cl := mustCluster(t, 4, 4)
	cl.SetFaultPlan(FaultPlan{Seed: 3, Drop: 0.5, Reliable: true, Deadline: 5})
	var reports []string
	for _, engine := range []ScaleEngine{ScaleTasks, ScaleProcs} {
		_, err := cl.ScaleAllreduce(ScaleOptions{Bytes: 64, Engine: engine})
		var se *StallError
		if !errors.As(err, &se) || !errors.Is(err, ErrDeadline) {
			t.Fatalf("%v: err = %v, want a *StallError matching ErrDeadline", engine, err)
		}
		if se.Time > 5 || len(se.Blocked) == 0 {
			t.Errorf("%v: stalled at t=%v with %d blocked, want t <= 5 and blocked ranks", engine, se.Time, len(se.Blocked))
		}
		reports = append(reports, se.Error())
	}
	if reports[0] != reports[1] {
		t.Errorf("the engines stall differently:\n%s\n%s", reports[0], reports[1])
	}
}
