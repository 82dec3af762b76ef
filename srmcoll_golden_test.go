package srmcoll

import (
	"testing"

	"srmcoll/internal/sim"
)

// pinOf is a run's determinism pin (sim.Pin): its event digest, then a hash of
// what the event stream cannot see — the counters, the faults injected, the
// failure and repair records, and the payload bytes given. Time, PerRank and
// Events are functions of the stream, so the digest stands for them.
//
// To regenerate a pin after an INTENTIONAL protocol or timing change, run the
// test and paste the pin it reports; srmbench diverge names the first event
// that moved.
func pinOf(res *Result, payload ...any) string {
	return sim.Pin(res.Digest, append([]any{res.Stats, res.Faults, res.Failures, res.Repairs}, payload...)...)
}

// TestFaultReplayMatchesGolden pins the fault-injected reliable-delivery run
// (the body and plan TestFaultRunsAreDeterministic uses) to the schedule, the
// counters, the injected faults and the delivered payload bytes the simulator
// produced before the hot-path work (item free list, buffer pools, buffered
// handoff channels), at da9adc6. A change is a determinism regression, not
// noise.
func TestFaultReplayMatchesGolden(t *testing.T) {
	cl := mustCluster(t, 4, 2)
	cl.SetFaultPlan(FaultPlan{
		Seed: 1234, Drop: 0.08, Dup: 0.04, Delay: 0.1, DelayMax: 15,
		AckDrop: 0.05, Reliable: true,
		Storms: []Storm{{Node: 1, From: 0, Until: 5000, Extra: 25}},
		Stalls: []Stall{{Rank: 2, From: 0, Until: 100000, Factor: 2}},
	})
	out := make([][]byte, 8)
	res, err := cl.Run(SRM, faultProbeBody(out))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pinOf(res, out), "083cbcfc8065d507/bcd4832157dd4858"; got != want {
		t.Errorf("pin = %s, golden %s", got, want)
	}
}
