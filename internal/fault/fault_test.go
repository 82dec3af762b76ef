package fault

import (
	"math"
	"strings"
	"testing"
)

func TestZeroPlanInactive(t *testing.T) {
	var p Plan
	if p.Active() {
		t.Fatal("zero plan reports Active")
	}
	p.Seed = 99 // a seed alone injects nothing
	if p.Active() {
		t.Fatal("seed-only plan reports Active")
	}
	p.Drop = 0.1
	if !p.Active() {
		t.Fatal("plan with Drop > 0 reports inactive")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Drop: 0.2, Dup: 0.1, Delay: 0.3, DelayMax: 50}
	a, b := New(plan), New(plan)
	for i := 0; i < 1000; i++ {
		va, vb := a.Put(0, 1), b.Put(0, 1)
		if va != vb {
			t.Fatalf("draw %d: verdicts diverge: %+v != %+v", i, va, vb)
		}
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("summaries diverge: %v != %v", a.Summary(), b.Summary())
	}
	if a.Summary().PutDrops == 0 || a.Summary().PutDups == 0 || a.Summary().PutDelays == 0 {
		t.Fatalf("1000 draws at 20/10/30%% produced %v; want every kind", a.Summary())
	}
}

func TestSeedChangesStream(t *testing.T) {
	a, b := New(Plan{Seed: 1, Drop: 0.5}), New(Plan{Seed: 2, Drop: 0.5})
	same := 0
	for i := 0; i < 256; i++ {
		if a.Put(0, 1).Drop == b.Put(0, 1).Drop {
			same++
		}
	}
	if same == 256 {
		t.Fatal("seeds 1 and 2 produced identical drop streams")
	}
}

func TestDropRateRoughlyHonored(t *testing.T) {
	in := New(Plan{Seed: 7, Drop: 0.25})
	const n = 20000
	for i := 0; i < n; i++ {
		in.Put(0, 1)
	}
	got := float64(in.Summary().PutDrops) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("empirical drop rate %.3f, want ~0.25", got)
	}
}

func TestChannelOverride(t *testing.T) {
	in := New(Plan{
		Seed:     3,
		Drop:     0, // default channel is clean
		Channels: []ChannelFault{{Src: 1, Dst: -1, Drop: 1}},
	})
	if v := in.Put(0, 2); v.Drop {
		t.Fatal("clean channel dropped")
	}
	if v := in.Put(1, 2); !v.Drop {
		t.Fatal("overridden channel (src=1) did not drop at rate 1")
	}
	if v := in.Put(1, 0); !v.Drop {
		t.Fatal("wildcard dst did not match")
	}
}

func TestStormDelayWindows(t *testing.T) {
	in := New(Plan{Seed: 0, Storms: []Storm{
		{Node: 1, From: 10, Until: 20, Extra: 5},
		{Node: 1, From: 15, Until: 30, Extra: 2},
	}})
	if d := in.StormDelay(1, 5); d != 0 {
		t.Fatalf("before window: delay %v, want 0", d)
	}
	if d := in.StormDelay(0, 12); d != 0 {
		t.Fatalf("other node: delay %v, want 0", d)
	}
	if d := in.StormDelay(1, 12); d != 5 {
		t.Fatalf("inside first window: delay %v, want 5", d)
	}
	if d := in.StormDelay(1, 17); d != 7 {
		t.Fatalf("overlapping windows: delay %v, want 7", d)
	}
	if d := in.StormDelay(1, 25); d != 2 {
		t.Fatalf("second window only: delay %v, want 2", d)
	}
	if got := in.Summary().StormHits; got != 3 {
		t.Fatalf("StormHits = %d, want 3", got)
	}
}

func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"good", Plan{Drop: 0.5, Crashes: []Crash{{Rank: 3, At: 10}}}, true},
		{"drop>1", Plan{Drop: 1.5}, false},
		{"negative", Plan{Dup: -0.1}, false},
		{"crash rank", Plan{Crashes: []Crash{{Rank: 8, At: 0}}}, false},
		{"negative crash time", Plan{Crashes: []Crash{{Rank: 1, At: -5}}}, false},
		{"duplicate crash rank", Plan{Crashes: []Crash{{Rank: 2, At: 10}, {Rank: 2, At: 20}}}, false},
		{"two crashes distinct ranks", Plan{Crashes: []Crash{{Rank: 2, At: 10}, {Rank: 3, At: 10}}}, true},
		{"stall factor", Plan{Stalls: []Stall{{Rank: 0, Factor: 0.5}}}, false},
		{"negative stall from", Plan{Stalls: []Stall{{Rank: 0, From: -1, Until: 5, Factor: 2}}}, false},
		{"negative stall until", Plan{Stalls: []Stall{{Rank: 0, From: 0, Until: -5, Factor: 2}}}, false},
		{"inverted stall window", Plan{Stalls: []Stall{{Rank: 0, From: 10, Until: 5, Factor: 2}}}, false},
		{"valid stall window", Plan{Stalls: []Stall{{Rank: 0, From: 5, Until: 10, Factor: 2}}}, true},
		{"channel rank", Plan{Channels: []ChannelFault{{Src: -2, Dst: 0}}}, false},
		{"NaN drop", Plan{Drop: nan}, false},
		{"channel drop>1", Plan{Channels: []ChannelFault{{Src: 0, Dst: 1, Drop: 7}}}, false},
		{"negative channel dup", Plan{Channels: []ChannelFault{{Src: -1, Dst: -1, Dup: -1}}}, false},
		{"NaN channel delay max", Plan{Channels: []ChannelFault{{Src: 0, Dst: -1, Delay: 0.5, DelayMax: nan}}}, false},
		{"valid channel", Plan{Channels: []ChannelFault{{Src: 0, Dst: -1, Drop: 1, Delay: 0.5, DelayMax: 9}}}, true},
		{"storm node", Plan{Storms: []Storm{{Node: 99, From: 0, Until: 10, Extra: 5}}}, false},
		{"negative storm extra", Plan{Storms: []Storm{{Node: 1, From: 0, Until: 10, Extra: -50}}}, false},
		{"inverted storm window", Plan{Storms: []Storm{{Node: 1, From: 10, Until: 5, Extra: 5}}}, false},
		{"endless storm", Plan{Storms: []Storm{{Node: 1, From: 0, Until: inf, Extra: 5}}}, false},
		{"valid storm", Plan{Storms: []Storm{{Node: 1, From: 0, Until: 10, Extra: 5}}}, true},
		{"NaN crash time", Plan{Crashes: []Crash{{Rank: 1, At: nan}}}, false},
		{"NaN stall factor", Plan{Stalls: []Stall{{Rank: 0, From: 5, Until: 10, Factor: nan}}}, false},
		{"NaN stall from", Plan{Stalls: []Stall{{Rank: 0, From: nan, Until: 10, Factor: 2}}}, false},
		{"negative delay max", Plan{Delay: 0.5, DelayMax: -3}, false},
		{"negative deadline", Plan{Deadline: -1}, false},
		{"negative ack timeout", Plan{Reliable: true, AckTimeout: -1}, false},
		{"infinite backoff cap", Plan{Reliable: true, BackoffCap: inf}, false},
	}
	for _, c := range cases {
		err := c.plan.Validate(8, 2)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestValidateErrorsNameTheFault(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"negative crash time", Plan{Crashes: []Crash{{Rank: 1, At: -5}}}, "Crashes[0].At = -5, want >= 0"},
		{"duplicate crash rank", Plan{Crashes: []Crash{{Rank: 2, At: 10}, {Rank: 2, At: 20}}},
			"Crashes[0] and Crashes[1] both kill rank 2"},
		{"negative stall bound", Plan{Stalls: []Stall{{Rank: 0, From: -1, Until: 5, Factor: 2}}},
			"Stalls[0] window [-1, 5) has a negative bound"},
		{"inverted stall window", Plan{Stalls: []Stall{{Rank: 0, From: 10, Until: 5, Factor: 2}}},
			"Stalls[0] window [10, 5) ends before it starts"},
		{"storm node", Plan{Storms: []Storm{{Node: 99, From: 0, Until: 10}}}, "Storms[0].Node = 99, want [0, 2)"},
		{"channel drop", Plan{Channels: []ChannelFault{{Src: 0, Dst: 1, Drop: 7}}}, "Channels[0].Drop = 7, want [0, 1]"},
		{"NaN stall factor", Plan{Stalls: []Stall{{Rank: 0, Factor: math.NaN()}}}, "Stalls[0].Factor = NaN, want >= 1"},
		{"infinite backoff cap", Plan{BackoffCap: math.Inf(1)}, "BackoffCap = +Inf, want finite"},
	}
	for _, c := range cases {
		err := c.plan.Validate(8, 2)
		if err == nil {
			t.Errorf("%s: Validate accepted a bad plan", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestMultiFaultPlanCounters drives an injector with a crash+storm+stall
// plan plus wire faults, checking that Summary counts every fault kind the
// run actually delivered and that the counts replay.
func TestMultiFaultPlanCounters(t *testing.T) {
	plan := Plan{
		Seed: 11, Drop: 0.3, Dup: 0.2, Delay: 0.4, DelayMax: 20, AckDrop: 0.5,
		Storms:  []Storm{{Node: 0, From: 0, Until: 100, Extra: 3}},
		Stalls:  []Stall{{Rank: 1, From: 0, Until: 50, Factor: 2}},
		Crashes: []Crash{{Rank: 2, At: 25}},
	}
	if err := plan.Validate(4, 2); err != nil {
		t.Fatal(err)
	}
	drive := func() Summary {
		in := New(plan)
		for i := 0; i < 400; i++ {
			in.Put(0, 1)
			in.AckDrop(1, 0)
		}
		in.StormDelay(0, 50) // inside the storm window
		in.StormDelay(0, 150)
		in.StormDelay(1, 50)
		in.CountStall()
		in.CountCrash()
		return in.Summary()
	}
	sum := drive()
	if sum.PutDrops == 0 || sum.PutDups == 0 || sum.PutDelays == 0 || sum.AckDrops == 0 {
		t.Fatalf("wire fault kinds missing from summary %v", sum)
	}
	if sum.StormHits != 1 {
		t.Errorf("StormHits = %d, want 1 (only the in-window query on the stormy node)", sum.StormHits)
	}
	if sum.Stalls != 1 || sum.Crashes != 1 {
		t.Errorf("Stalls/Crashes = %d/%d, want 1/1", sum.Stalls, sum.Crashes)
	}
	if again := drive(); again != sum {
		t.Errorf("replay diverged: %v != %v", again, sum)
	}
	// Every counted kind must show up in the rendered summary.
	str := sum.String()
	for _, k := range []string{"putDrops", "putDups", "putDelays", "ackDrops", "stormHits", "stalls", "crashes"} {
		if !strings.Contains(str, k) {
			t.Errorf("Summary.String() %q missing %q", str, k)
		}
	}
}

func TestSummaryString(t *testing.T) {
	if got := (Summary{}).String(); got != "{}" {
		t.Fatalf("empty summary = %q", got)
	}
	s := Summary{PutDrops: 2, Crashes: 1}
	if got := s.String(); got != "{crashes=1 putDrops=2}" {
		t.Fatalf("summary = %q", got)
	}
}
