package machine

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"srmcoll/internal/sim"
)

func TestColonySPValid(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		cfg := ColonySP(nodes, 16)
		if err := cfg.Validate(); err != nil {
			t.Errorf("ColonySP(%d,16): %v", nodes, err)
		}
		if cfg.P() != nodes*16 {
			t.Errorf("P() = %d, want %d", cfg.P(), nodes*16)
		}
	}
}

func TestViaClusterValid(t *testing.T) {
	cfg := ViaCluster(4, 4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NetPerByte <= ColonySP(4, 4).NetPerByte {
		t.Error("VIA cluster should have a slower network than the SP")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero tasks", func(c *Config) { c.TasksPerNode = 0 }},
		{"zero mem bw", func(c *Config) { c.MemPerByte = 0 }},
		{"zero net bw", func(c *Config) { c.NetPerByte = 0 }},
		{"zero bus conc", func(c *Config) { c.MemBusConcurrency = 0 }},
		{"zero shm packet", func(c *Config) { c.ShmPktSize = 0 }},
		{"chunk > buffer", func(c *Config) { c.SRMSmallChunk = c.SRMBcastBufSize * 2 }},
		{"zero large chunk", func(c *Config) { c.SRMLargeChunk = 0 }},
		{"zero rd limit", func(c *Config) { c.SRMAllreduceRD = 0 }},
	}
	for _, tc := range cases {
		cfg := ColonySP(2, 4)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

// TestValidateRejectsBadTimes: a time parameter of a Config or a Tier that is
// NaN, infinite or negative is an error naming the field. Such a value used to
// pass, and the run returned a wrong Result without any error: a NaN
// MemLatency or FlagLatency gave Time 0, an infinite NetLatency +Inf.
func TestValidateRejectsBadTimes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		bad   float64
	}{
		{"MemLatency", nan},
		{"MemPerByte", nan},
		{"FlagLatency", nan},
		{"ReducePerByte", -1},
		{"YieldWake", inf},
		{"NetLatency", inf},
		{"NetLatency", -5},
		{"NetPerByte", inf},
		{"NetPktOverhead", -1},
		{"SendOverhead", nan},
		{"RecvOverhead", -0.5},
		{"InterruptCost", inf},
		{"StarvePenalty", -1},
		{"AMHandlerCost", nan},
		{"DaemonPeriod", -inf},
		{"DaemonSlice", nan},
		{"MPIOverhead", -1},
		{"TagMatchBase", inf},
		{"TagMatchScan", nan},
		{"Tiers[0].Latency", nan},
		{"Tiers[0].PerByte", nan},
		{"Tiers[0].PktOverhead", inf},
	}
	for _, tc := range cases {
		cfg := HierColonySP(12, 4, 3, 2)
		if tier, ok := strings.CutPrefix(tc.field, "Tiers[0]."); ok {
			reflect.ValueOf(&cfg.Tiers[0]).Elem().FieldByName(tier).SetFloat(tc.bad)
		} else {
			reflect.ValueOf(&cfg).Elem().FieldByName(tc.field).SetFloat(tc.bad)
		}
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field+" =") {
			t.Errorf("%s = %v: Validate() = %v, want an error naming the field", tc.field, tc.bad, err)
		}
	}
	for name, cfg := range map[string]Config{
		"ColonySP": ColonySP(4, 16), "ViaCluster": ViaCluster(4, 4), "HierColonySP": HierColonySP(12, 4, 3, 2),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTopologyMapping(t *testing.T) {
	m := New(sim.NewEnv(), ColonySP(4, 16))
	if got := m.NodeOf(0); got != 0 {
		t.Errorf("NodeOf(0) = %d", got)
	}
	if got := m.NodeOf(15); got != 0 {
		t.Errorf("NodeOf(15) = %d", got)
	}
	if got := m.NodeOf(16); got != 1 {
		t.Errorf("NodeOf(16) = %d", got)
	}
	if got := m.NodeOf(63); got != 3 {
		t.Errorf("NodeOf(63) = %d", got)
	}
	if got := m.LocalRank(35); got != 3 {
		t.Errorf("LocalRank(35) = %d", got)
	}
}

// Property: (NodeOf, LocalRank) places every rank at node·tpn + local.
func TestPropTopologyRoundTrip(t *testing.T) {
	f := func(nodes, tpn, r uint8) bool {
		n, p := int(nodes%16)+1, int(tpn%16)+1
		m := New(sim.NewEnv(), ColonySP(n, p))
		rank := int(r) % (n * p)
		return m.NodeOf(rank)*p+m.LocalRank(rank) == rank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyTimeLinear(t *testing.T) {
	m := New(sim.NewEnv(), ColonySP(1, 2))
	small, big := m.CopyTime(1024), m.CopyTime(2048)
	wantDelta := 1024 * m.Cfg.MemPerByte
	if math.Abs((big-small)-wantDelta) > 1e-9 {
		t.Errorf("CopyTime slope = %v, want %v", big-small, wantDelta)
	}
	if m.CopyTime(0) != m.Cfg.MemLatency {
		t.Errorf("CopyTime(0) = %v, want latency %v", m.CopyTime(0), m.Cfg.MemLatency)
	}
}

func TestMemcpyMovesDataAndCharges(t *testing.T) {
	env := sim.NewEnv()
	m := New(env, ColonySP(1, 2))
	src := []byte("hello, smp node")
	dst := make([]byte, len(src))
	var took sim.Time
	env.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		m.Memcpy(p, 0, dst, src)
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("dst = %q, want %q", dst, src)
	}
	if want := m.CopyTime(len(src)); math.Abs(took-want) > 1e-9 {
		t.Errorf("uncontended copy took %v, want %v", took, want)
	}
	if m.Stats.ShmCopies != 1 || m.Stats.ShmBytes != int64(len(src)) {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestMemcpyLengthMismatchPanics(t *testing.T) {
	env := sim.NewEnv()
	m := New(env, ColonySP(1, 2))
	env.Spawn("t", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch did not panic")
			}
		}()
		m.Memcpy(p, 0, make([]byte, 3), make([]byte, 4))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyContention(t *testing.T) {
	env := sim.NewEnv()
	cfg := ColonySP(1, 16)
	cfg.MemBusConcurrency = 2
	m := New(env, cfg)
	const n = 8 << 10
	src := make([]byte, n)
	var last sim.Time
	// 6 concurrent copies with concurrency 2 must take longer than serial/3.
	for i := 0; i < 6; i++ {
		env.Spawn("c", func(p *sim.Proc) {
			dst := make([]byte, n)
			m.Memcpy(p, 0, dst, src)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	uncontended := m.CopyTime(n)
	if last <= uncontended {
		t.Errorf("contended batch finished in %v, want > uncontended %v", last, uncontended)
	}
	// And the factor snapshot bounds it: worst factor is 6/2 = 3.
	if last > 3*uncontended+1e-6 {
		t.Errorf("contended batch %v exceeds worst-case 3x bound %v", last, 3*uncontended)
	}
}

func TestNetInjectSerializesPerNode(t *testing.T) {
	env := sim.NewEnv()
	m := New(env, ColonySP(2, 1))
	const n = 100 << 10
	_, arr1 := m.NetInject(0, n)
	_, arr2 := m.NetInject(0, n)
	wire := m.Cfg.NetPktOverhead + sim.Time(n)*m.Cfg.NetPerByte
	if math.Abs(arr2-arr1-wire) > 1e-9 {
		t.Errorf("second injection arrives %v after first, want %v (serialized)", arr2-arr1, wire)
	}
	// A different node's adapter is independent.
	_, arr3 := m.NetInject(1, n)
	if math.Abs(arr3-arr1) > 1e-9 {
		t.Errorf("other node's injection arrives at %v, want %v", arr3, arr1)
	}
}

func TestNetInjectLatency(t *testing.T) {
	env := sim.NewEnv()
	m := New(env, ColonySP(2, 1))
	end, arr := m.NetInject(0, 0)
	if math.Abs(arr-end-m.Cfg.NetLatency) > 1e-9 {
		t.Errorf("arrival - injectEnd = %v, want NetLatency %v", arr-end, m.Cfg.NetLatency)
	}
}

func TestSpinPenaltyOnlyWithoutYield(t *testing.T) {
	envY := sim.NewEnv()
	mY := New(envY, ColonySP(1, 4)) // SpinYield: true
	mY.SpinEnter(0)
	if got := mY.SpinPenalty(0); got != 0 {
		t.Errorf("penalty with yield = %v, want 0", got)
	}
	mY.SpinExit(0)

	cfg := ColonySP(1, 4)
	cfg.SpinYield = false
	mN := New(sim.NewEnv(), cfg)
	if got := mN.SpinPenalty(0); got != 0 {
		t.Errorf("penalty with no spinners = %v, want 0", got)
	}
	mN.SpinEnter(0)
	if got := mN.SpinPenalty(0); got != cfg.StarvePenalty {
		t.Errorf("penalty = %v, want %v", got, cfg.StarvePenalty)
	}
	if mN.Stats.Starves != 1 {
		t.Errorf("starves = %d, want 1", mN.Stats.Starves)
	}
	mN.SpinExit(0)
	if got := mN.SpinPenalty(0); got != 0 {
		t.Errorf("penalty after exit = %v, want 0", got)
	}
}

func TestWakeLatencyYieldCost(t *testing.T) {
	cfg := ColonySP(1, 4)
	my := New(sim.NewEnv(), cfg)
	cfg2 := cfg
	cfg2.SpinYield = false
	mn := New(sim.NewEnv(), cfg2)
	if my.WakeLatency() <= mn.WakeLatency() {
		t.Error("yielding spin should have larger wake latency than pure spin")
	}
}

func TestChargeCopyAdvancesTime(t *testing.T) {
	env := sim.NewEnv()
	m := New(env, ColonySP(1, 2))
	env.Spawn("t", func(p *sim.Proc) {
		m.ChargeCopy(p, 0, 4096)
		if want := m.CopyTime(4096); math.Abs(p.Now()-want) > 1e-9 {
			t.Errorf("ChargeCopy advanced %v, want %v", p.Now(), want)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(sim.NewEnv(), Config{})
}

func TestNetInjectIdleGapResets(t *testing.T) {
	env := sim.NewEnv()
	m := New(env, ColonySP(2, 1))
	m.NetInject(0, 1<<20) // long injection
	var arr2 sim.Time
	env.At(100000, func() { _, arr2 = m.NetInject(0, 0) }) // long after idle
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 100000 + m.Cfg.NetPktOverhead + m.Cfg.NetLatency
	if math.Abs(arr2-want) > 1e-6 {
		t.Errorf("post-idle injection arrives at %v, want %v", arr2, want)
	}
}

func TestDaemonModelOffByDefault(t *testing.T) {
	env := sim.NewEnv()
	m := New(env, ColonySP(2, 16))
	if m.DaemonExtra(0, 1e6) != 0 {
		t.Fatal("daemon noise should be off by default")
	}
}

func TestDaemonExtraCountsCrossings(t *testing.T) {
	env := sim.NewEnv()
	cfg := ColonySP(1, 16)
	cfg.DaemonSlice = 100
	m := New(env, cfg)
	// An interval spanning 3 full periods hits 3 activations.
	if got := m.DaemonExtra(0, 3*cfg.DaemonPeriod); got != 300 {
		t.Fatalf("DaemonExtra over 3 periods = %v, want 300", got)
	}
	// A tiny interval clear of the activation grid hits none.
	if got := m.DaemonExtra(0, 10); got != 0 {
		t.Fatalf("DaemonExtra over 10us = %v, want 0", got)
	}
}

func TestDaemonFreeCPUAbsorbs(t *testing.T) {
	env := sim.NewEnv()
	cfg := ColonySP(1, 15) // one CPU left for the daemons (§2.1)
	cfg.DaemonSlice = 100
	m := New(env, cfg)
	if got := m.DaemonExtra(0, 5*cfg.DaemonPeriod); got != 0 {
		t.Fatalf("15-of-16 should absorb daemons, got %v", got)
	}
}

// The activations sit half a period into the grid on a single node: an
// interval around that instant is hit, one just past it is not.
func TestDaemonPhase(t *testing.T) {
	env := sim.NewEnv()
	cfg := ColonySP(1, 16)
	cfg.DaemonSlice = 100
	m := New(env, cfg)
	phase := cfg.DaemonPeriod / 2
	var around, after sim.Time
	env.At(phase-10, func() { around = m.DaemonExtra(0, 20) })
	env.At(phase+40, func() { after = m.DaemonExtra(0, 20) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if around != 100 || after != 0 {
		t.Fatalf("DaemonExtra around the activation = %v, just after = %v; want 100 and 0", around, after)
	}
}

func TestHierColonySPShape(t *testing.T) {
	// 12 nodes, leaf switches of 3, racks of 2 leaves, implied top tier of
	// the remaining factor 2.
	cfg := HierColonySP(12, 8, 3, 2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Hierarchical() || len(cfg.Tiers) != 2 {
		t.Fatalf("tiers = %+v, want rack + implied top", cfg.Tiers)
	}
	if got := cfg.TierSpans(); fmt.Sprint(got) != "[3 6 12]" {
		t.Errorf("TierSpans = %v, want [3 6 12]", got)
	}
	if got := cfg.TopoKey(); got != "12x8/3/2/2" {
		t.Errorf("TopoKey = %q, want 12x8/3/2/2", got)
	}
	// Each tier is slower than the one below.
	if cfg.Tiers[0].Latency <= cfg.NetLatency || cfg.Tiers[1].Latency <= cfg.Tiers[0].Latency {
		t.Errorf("tier latencies do not increase: %v then %+v", cfg.NetLatency, cfg.Tiers)
	}
}

func TestHierColonySPDegeneratesToFlat(t *testing.T) {
	for _, leaf := range []int{0, -3, 12, 20} {
		cfg := HierColonySP(12, 8, leaf)
		if cfg.Hierarchical() || len(cfg.Tiers) != 0 {
			t.Errorf("leafNodes=%d: want the flat ColonySP model, got %+v", leaf, cfg.Tiers)
		}
		if cfg.TopoKey() != "12x8" {
			t.Errorf("leafNodes=%d: TopoKey = %q, want 12x8", leaf, cfg.TopoKey())
		}
	}
}

func TestTierOf(t *testing.T) {
	cfg := HierColonySP(12, 4, 3, 2) // leaves of 3, racks of 6, top of 12
	cases := []struct{ a, b, want int }{
		{0, 0, 0},  // same node
		{0, 2, 1},  // same leaf switch
		{0, 3, 2},  // same rack, different leaf
		{0, 6, 3},  // across racks: the top tier
		{11, 5, 3}, // symmetric
		{6, 9, 2},  // rack 1 internal: leaf {6,7,8} vs {9,10,11}
	}
	for _, c := range cases {
		if got := cfg.TierOf(c.a, c.b); got != c.want {
			t.Errorf("TierOf(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := cfg.TierOf(c.b, c.a); got != c.want {
			t.Errorf("TierOf(%d,%d) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
	// Flat config: everything off-node is tier 1.
	flat := ColonySP(4, 4)
	if flat.TierOf(0, 3) != 1 || flat.TierOf(2, 2) != 0 {
		t.Error("flat TierOf wrong")
	}
}

func TestNetLatencyOfPicksTier(t *testing.T) {
	cfg := HierColonySP(12, 4, 3, 2)
	if got := cfg.NetLatencyOf(0, 1); got != cfg.NetLatency {
		t.Errorf("leaf latency = %v, want base %v", got, cfg.NetLatency)
	}
	if got := cfg.NetLatencyOf(0, 4); got != cfg.Tiers[0].Latency {
		t.Errorf("rack latency = %v, want %v", got, cfg.Tiers[0].Latency)
	}
	if got := cfg.NetLatencyOf(0, 11); got != cfg.Tiers[1].Latency {
		t.Errorf("top latency = %v, want %v", got, cfg.Tiers[1].Latency)
	}
	if got := cfg.MaxNetLatency(); got != cfg.Tiers[1].Latency {
		t.Errorf("MaxNetLatency = %v, want the top tier's %v", got, cfg.Tiers[1].Latency)
	}
}

func TestNetInjectToLeafMatchesNetInject(t *testing.T) {
	// Within a leaf switch (and on flat configs) NetInjectTo must be
	// NetInject bit for bit; two fresh machines keep the NIC state apart.
	cfg := HierColonySP(8, 1, 4)
	a, b := New(sim.NewEnv(), cfg), New(sim.NewEnv(), cfg)
	for _, n := range []int{0, 1, 4096, 100 << 10} {
		e1, a1 := a.NetInjectTo(0, 2, n)
		e2, a2 := b.NetInject(0, n)
		if e1 != e2 || a1 != a2 {
			t.Fatalf("n=%d: NetInjectTo = (%v,%v), NetInject = (%v,%v)", n, e1, a1, e2, a2)
		}
	}
}

func TestNetInjectToUplinkSerialization(t *testing.T) {
	// One top-tier group with Concurrency uplink ports: with three distinct
	// source nodes injecting at once, the first two sail through on separate
	// ports and the third queues for exactly one serialization slot.
	cfg := HierColonySP(8, 1, 4) // leaves of 4, one top tier, Concurrency 2
	if cfg.Tiers[0].Concurrency != 2 {
		t.Fatalf("expected 2 uplink ports, got %+v", cfg.Tiers[0])
	}
	m := New(sim.NewEnv(), cfg)
	const n = 64 << 10
	tier := cfg.Tiers[0]
	ser := tier.PktOverhead + sim.Time(n)*tier.PerByte
	_, a1 := m.NetInjectTo(0, 4, n)
	_, a2 := m.NetInjectTo(1, 5, n)
	_, a3 := m.NetInjectTo(2, 6, n)
	if math.Abs(a2-a1) > 1e-9 {
		t.Errorf("second sender arrives at %v, first at %v; want equal (separate ports)", a2, a1)
	}
	if math.Abs(a3-a1-ser) > 1e-9 {
		t.Errorf("third sender arrives %v after first, want one port slot %v", a3-a1, ser)
	}
	// The cross-tier arrival includes the tier latency, not the leaf one.
	inj, _ := New(sim.NewEnv(), cfg).NetInject(0, n)
	if want := inj + ser + tier.Latency; math.Abs(a1-want) > 1e-9 {
		t.Errorf("cross-tier arrival = %v, want injectEnd + port + tier latency = %v", a1, want)
	}
}

func TestParseTopoRoundTrip(t *testing.T) {
	for spec, key := range map[string]string{
		"16x8":       "16x8",
		"8x4/2":      "8x4/2/4",    // implied catch-all top tier of 4 groups
		"12x8/3/2":   "12x8/3/2/2", // implied top tier of 2
		"16x8/4/2":   "16x8/4/2/2", // implied top tier closes the 2x
		"24x4/3/2":   "24x4/3/2/4", // 24 = 3*2*4
		"16x4/4/2/2": "16x4/4/2/2", // fully specified: round-trips exactly
	} {
		cfg, err := ParseTopo(spec)
		if err != nil {
			t.Errorf("ParseTopo(%q): %v", spec, err)
			continue
		}
		if got := cfg.TopoKey(); got != key {
			t.Errorf("ParseTopo(%q).TopoKey() = %q, want %q", spec, got, key)
		}
		// The canonical key parses back to itself.
		cfg2, err := ParseTopo(key)
		if err != nil || cfg2.TopoKey() != key {
			t.Errorf("TopoKey %q does not round-trip: %v", key, err)
		}
	}
}

func TestParseTopoRejects(t *testing.T) {
	for _, spec := range []string{"", "bogus", "8", "8x", "x8", "8x2x3", " 8x2",
		"8x2/", "8x2/0", "8x2/-1", "8x2/a", "8x2/3/x", "0x4", "4x0"} {
		if _, err := ParseTopo(spec); err == nil {
			t.Errorf("ParseTopo(%q) = nil error, want rejection", spec)
		}
	}
}

func TestValidateRejectsBadHierConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative leaf", func(c *Config) { c.LeafNodes = -1 }},
		{"tiers without leaf", func(c *Config) { c.LeafNodes = 0 }},
		{"partial cover", func(c *Config) { c.Tiers = nil }},
		{"zero group size", func(c *Config) { c.Tiers[0].GroupSize = 0 }},
		{"zero tier bw", func(c *Config) { c.Tiers[0].PerByte = 0 }},
		{"negative tier latency", func(c *Config) { c.Tiers[0].Latency = -1 }},
		{"negative concurrency", func(c *Config) { c.Tiers[0].Concurrency = -2 }},
	}
	for _, tc := range cases {
		cfg := HierColonySP(12, 4, 3, 2)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestDaemonNoiseSlowsFullSubscription(t *testing.T) {
	run := func(tpn int) sim.Time {
		env := sim.NewEnv()
		cfg := ColonySP(1, tpn)
		cfg.DaemonSlice = 150
		m := New(env, cfg)
		var took sim.Time
		env.Spawn("c", func(p *sim.Proc) {
			src := make([]byte, 4<<20)
			m.Memcpy(p, 0, make([]byte, len(src)), src)
			took = p.Now()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	full, trimmed := run(16), run(15)
	if full <= trimmed {
		t.Fatalf("fully subscribed node (%v) should be slower than 15-of-16 (%v)", full, trimmed)
	}
}
