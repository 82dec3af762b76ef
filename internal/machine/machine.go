// Package machine models the hardware of an SMP cluster: the node/task
// topology, and a calibrated cost model for intra-node memory traffic and
// the inter-node network. All protocol layers (internal/shm, internal/rma,
// internal/mpi) charge their time through this package, so machine.Config
// is the single place where a platform is described.
//
// Times are microseconds (sim.Time). The ColonySP preset approximates the
// paper's testbed: an IBM SP with 16-way SMP nodes and the "Colony" switch.
package machine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/fault"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Tier describes one level of the network hierarchy above the leaf switch —
// a rack aggregation switch, a pod spine, a wide-area link — with its own
// LogGP-style parameters. Messages whose endpoints first share a switch at
// this tier pay this tier's wire costs instead of the base Net* parameters,
// and (when Concurrency > 0) contend for the tier group's uplink ports.
type Tier struct {
	Name        string   // label for rendering ("rack", "pod", ...)
	GroupSize   int      // groups of the level below per group of this tier
	Latency     sim.Time // one-way latency for messages crossing this tier
	PerByte     sim.Time // uplink serialization cost, us/byte
	PktOverhead sim.Time // per-packet uplink overhead
	Concurrency int      // uplink ports per group; 0 = unlimited
}

// Config describes a cluster and its timing parameters.
type Config struct {
	Nodes        int // number of SMP nodes
	TasksPerNode int // tasks (MPI ranks) per node

	// Shared-memory (intra-node) parameters.
	MemLatency        sim.Time // fixed per-copy software+issue overhead
	MemPerByte        sim.Time // inverse copy bandwidth, us/byte
	MemBusConcurrency int      // concurrent copies that run at full speed
	FlagLatency       sim.Time // store-to-observe latency of a shared flag
	ReducePerByte     sim.Time // elementwise combine cost, us/byte
	YieldWake         sim.Time // extra wake latency when spin loops yield

	// Network (inter-node) parameters, LogGP-style.
	NetLatency     sim.Time // one-way wire latency L
	NetPerByte     sim.Time // per-byte injection cost G (inverse bandwidth)
	NetPktOverhead sim.Time // per-packet injection overhead
	SendOverhead   sim.Time // CPU overhead at the origin, o_s
	RecvOverhead   sim.Time // CPU/dispatcher overhead at the target, o_r
	InterruptCost  sim.Time // delivering into a task not inside an RMA call
	StarvePenalty  sim.Time // extra delivery delay per non-yielding spinner set
	AMHandlerCost  sim.Time // header-handler execution cost

	// System daemons (§2.1, §3): each node runs periodic system daemons.
	// When every CPU is occupied by tasks (TasksPerNode >= CPUsPerNode)
	// the daemon steals a slice from whatever task is running; leaving one
	// CPU free (the 15-of-16 configuration) absorbs them. DaemonSlice = 0
	// disables the model (the default).
	CPUsPerNode  int
	DaemonPeriod sim.Time // interval between daemon activations per node
	DaemonSlice  sim.Time // CPU time stolen per activation

	// MPI point-to-point layer costs (baselines only).
	MPIOverhead  sim.Time // software overhead per send/recv call
	TagMatchBase sim.Time // fixed matching cost per arriving message
	TagMatchScan sim.Time // additional cost per queue entry scanned
	ShmPktSize   int      // intra-node p2p bounce-buffer (pipelining) size

	// SRM protocol tuning (the paper's constants; ablation A4 sweeps them).
	SRMBcastBufSize int  // shared broadcast buffer size and small/large switch (64 KB)
	SRMSmallChunk   int  // pipeline chunk for 8-32 KB broadcasts (4 KB)
	SRMPipelineMin  int  // lower bound of the chunked small-message range (8 KB)
	SRMLargeChunk   int  // chunk for large-message pipelines (bcast/reduce)
	SRMAllreduceRD  int  // recursive-doubling allreduce limit (16 KB)
	SpinYield       bool // yield the CPU after bounded unsuccessful spins (§2.4)

	// Hierarchical topology (DESIGN.md §14). LeafNodes is the number of
	// nodes per leaf switch; 0 keeps the paper's flat single-switch model,
	// in which the base Net* parameters cover every node pair. When
	// LeafNodes > 0, the base Net* parameters describe the leaf switch and
	// Tiers lists the levels above it, innermost first. Node ids map onto
	// the hierarchy by contiguous blocks: nodes [0,LeafNodes) share the
	// first leaf switch, and tier i groups span
	// LeafNodes*GroupSize[0]*...*GroupSize[i] consecutive nodes. Node
	// pairs farther apart than the last tier's span clamp to the last
	// tier's parameters.
	LeafNodes int
	Tiers     []Tier
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("machine: Nodes = %d, want >= 1", c.Nodes)
	case c.TasksPerNode < 1:
		return fmt.Errorf("machine: TasksPerNode = %d, want >= 1", c.TasksPerNode)
	case c.MemPerByte <= 0 || c.NetPerByte <= 0:
		return fmt.Errorf("machine: per-byte costs must be positive")
	case c.MemBusConcurrency < 1:
		return fmt.Errorf("machine: MemBusConcurrency = %d, want >= 1", c.MemBusConcurrency)
	case c.SRMBcastBufSize < c.SRMSmallChunk || c.SRMSmallChunk < 1:
		return fmt.Errorf("machine: SRM buffer sizes inconsistent")
	case c.SRMLargeChunk < 1 || c.SRMAllreduceRD < 1:
		return fmt.Errorf("machine: SRM chunk sizes must be positive")
	case c.LeafNodes < 0:
		return fmt.Errorf("machine: LeafNodes = %d, want >= 0", c.LeafNodes)
	case len(c.Tiers) > 0 && c.LeafNodes < 1:
		return fmt.Errorf("machine: Tiers set but LeafNodes = %d; set nodes-per-leaf-switch", c.LeafNodes)
	case c.LeafNodes > 0 && c.LeafNodes < c.Nodes && len(c.Tiers) == 0:
		return fmt.Errorf("machine: LeafNodes = %d < Nodes = %d needs at least one Tier",
			c.LeafNodes, c.Nodes)
	}
	for i, t := range c.Tiers {
		switch {
		case t.GroupSize < 1:
			return fmt.Errorf("machine: Tiers[%d].GroupSize = %d, want >= 1", i, t.GroupSize)
		case t.PerByte <= 0:
			return fmt.Errorf("machine: Tiers[%d].PerByte must be positive", i)
		case t.Latency < 0 || t.PktOverhead < 0:
			return fmt.Errorf("machine: Tiers[%d] times must be non-negative", i)
		case t.Concurrency < 0:
			return fmt.Errorf("machine: Tiers[%d].Concurrency = %d, want >= 0", i, t.Concurrency)
		}
	}
	return nil
}

// Hierarchical reports whether the config describes a multi-tier topology.
func (c Config) Hierarchical() bool { return c.LeafNodes > 0 && len(c.Tiers) > 0 }

// TierSpans returns the group width in nodes at each hierarchy level,
// innermost first: spans[0] = LeafNodes, spans[i] = nodes per Tiers[i-1]
// group. It returns nil for a flat topology. Tree builders (tree.NewHier)
// consume this directly.
func (c Config) TierSpans() []int {
	if !c.Hierarchical() {
		return nil
	}
	spans := make([]int, 0, len(c.Tiers)+1)
	span := c.LeafNodes
	spans = append(spans, span)
	for _, t := range c.Tiers {
		span *= t.GroupSize
		spans = append(spans, span)
	}
	return spans
}

// TierOf returns the hierarchy distance between two nodes: 0 for the same
// node, 1 for nodes on the same leaf switch (or any pair on a flat
// topology), and 2+i for pairs that first share a switch at Tiers[i]. Pairs
// beyond the last tier's span clamp to the last tier.
func (c Config) TierOf(a, b int) int {
	if a == b {
		return 0
	}
	if !c.Hierarchical() || a/c.LeafNodes == b/c.LeafNodes {
		return 1
	}
	span := c.LeafNodes
	for i, t := range c.Tiers {
		span *= t.GroupSize
		if a/span == b/span {
			return 2 + i
		}
	}
	return 1 + len(c.Tiers)
}

// NetLatencyOf returns the one-way wire latency between two nodes' adapters.
// On a flat topology (or within a leaf switch) this is NetLatency.
func (c Config) NetLatencyOf(a, b int) sim.Time {
	if l := c.TierOf(a, b); l >= 2 {
		return c.Tiers[l-2].Latency
	}
	return c.NetLatency
}

// MaxNetLatency returns the worst one-way latency across all tiers; timeout
// defaults (reliable-mode acks, failure detectors) derive from it so they
// stay conservative on deep hierarchies.
func (c Config) MaxNetLatency() sim.Time {
	max := c.NetLatency
	for _, t := range c.Tiers {
		if t.Latency > max {
			max = t.Latency
		}
	}
	return max
}

// TopoKey returns the canonical topology-shape key used by the autotuner's
// decision table: "NxT" for flat topologies, "NxT/leaf/g1/.../gk" for
// hierarchies (leaf = LeafNodes, gi = Tiers[i-1].GroupSize). The key names
// the shape only; tier timing parameters are assumed to be the
// HierColonySP defaults.
func (c Config) TopoKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d", c.Nodes, c.TasksPerNode)
	if c.Hierarchical() {
		fmt.Fprintf(&b, "/%d", c.LeafNodes)
		for _, t := range c.Tiers {
			fmt.Fprintf(&b, "/%d", t.GroupSize)
		}
	}
	return b.String()
}

// P returns the total task count.
func (c Config) P() int { return c.Nodes * c.TasksPerNode }

// ColonySP returns a configuration approximating the paper's IBM SP testbed
// (16-way Nighthawk nodes, Colony switch, LAPI). Absolute values are
// educated estimates for 2002-era hardware; EXPERIMENTS.md records how the
// resulting ratios compare with the paper.
func ColonySP(nodes, tasksPerNode int) Config {
	return Config{
		Nodes:        nodes,
		TasksPerNode: tasksPerNode,

		MemLatency:        0.4,
		MemPerByte:        0.0020, // ~500 MB/s per-process copy bandwidth
		MemBusConcurrency: 4,
		FlagLatency:       0.35,
		ReducePerByte:     0.0026,
		YieldWake:         0.25,

		NetLatency:     8.5,
		NetPerByte:     0.0029, // ~345 MB/s link
		NetPktOverhead: 0.6,
		SendOverhead:   3.6,
		RecvOverhead:   3.2,
		InterruptCost:  24,
		StarvePenalty:  14,
		AMHandlerCost:  1.4,

		CPUsPerNode:  16,
		DaemonPeriod: 10000, // a 10 ms system tick
		DaemonSlice:  0,     // noise off by default

		MPIOverhead:  5.0,
		TagMatchBase: 1.0,
		TagMatchScan: 0.15,
		ShmPktSize:   16 << 10,

		SRMBcastBufSize: 64 << 10,
		SRMSmallChunk:   4 << 10,
		SRMPipelineMin:  8 << 10,
		SRMLargeChunk:   64 << 10,
		SRMAllreduceRD:  16 << 10,
		SpinYield:       true,
	}
}

// ViaCluster returns a commodity-cluster configuration (Giganet/VIA-class
// interconnect, small SMP nodes) in the spirit of the barrier study the
// paper extends. Used by examples; not part of the paper's evaluation.
func ViaCluster(nodes, tasksPerNode int) Config {
	c := ColonySP(nodes, tasksPerNode)
	c.NetLatency = 14
	c.NetPerByte = 0.0095 // ~105 MB/s
	c.SendOverhead = 5
	c.RecvOverhead = 5
	c.InterruptCost = 30
	c.MemPerByte = 0.0013 // faster commodity memory
	c.MemBusConcurrency = 2
	return c
}

// HierColonySP returns a ColonySP-based hierarchical configuration:
// leafNodes nodes per leaf switch, then one tier per groupSizes entry
// (innermost first). Each successive tier is slower than the one below —
// 3x the latency, 2.5x the per-byte cost, 1.5x the packet overhead — with
// two uplink ports per group, a shape in the spirit of rack/pod/wide-area
// fabrics. A missing or catch-all (< 2) group size closes the hierarchy
// with a single top tier spanning the remaining nodes; leafNodes <= 0 or
// >= nodes degenerates to the flat ColonySP model.
func HierColonySP(nodes, tasksPerNode, leafNodes int, groupSizes ...int) Config {
	c := ColonySP(nodes, tasksPerNode)
	if leafNodes <= 0 || leafNodes >= nodes {
		return c
	}
	c.LeafNodes = leafNodes
	names := []string{"rack", "pod", "wan"}
	lat, g, pkt := c.NetLatency, c.NetPerByte, c.NetPktOverhead
	span := leafNodes
	for i := 0; span < nodes; i++ {
		gs := 0
		if i < len(groupSizes) {
			gs = groupSizes[i]
		}
		if gs < 2 {
			gs = (nodes + span - 1) / span // catch-all top tier
		}
		lat *= 3
		g *= 2.5
		pkt *= 1.5
		name := "tier"
		if i < len(names) {
			name = names[i]
		}
		c.Tiers = append(c.Tiers, Tier{
			Name: name, GroupSize: gs,
			Latency: lat, PerByte: g, PktOverhead: pkt,
			Concurrency: 2,
		})
		span *= gs
	}
	return c
}

// ParseTopo parses a topology-shape spec of the TopoKey form
// "NxT[/leaf[/g1[/g2...]]]" — e.g. "16x8" (flat, 16 nodes x 8 tasks) or
// "12x8/3/2" (leaf switches of 3 nodes, racks of 2 leaves, plus an implied
// top tier) — and returns the corresponding HierColonySP configuration.
func ParseTopo(spec string) (Config, error) {
	parts := strings.Split(spec, "/")
	var nodes, tpn int
	if _, err := fmt.Sscanf(parts[0], "%dx%d", &nodes, &tpn); err != nil ||
		fmt.Sprintf("%dx%d", nodes, tpn) != parts[0] {
		return Config{}, fmt.Errorf("machine: bad topology %q, want NxT[/leaf[/g...]]", spec)
	}
	dims := make([]int, 0, len(parts)-1)
	for _, p := range parts[1:] {
		d, err := strconv.Atoi(p)
		if err != nil || d < 1 {
			return Config{}, fmt.Errorf("machine: bad topology %q: segment %q is not a positive integer", spec, p)
		}
		dims = append(dims, d)
	}
	leaf := 0
	if len(dims) > 0 {
		leaf = dims[0]
	}
	c := HierColonySP(nodes, tpn, leaf, dims[min(1, len(dims)):]...)
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Node is the mutable per-node simulation state.
type Node struct {
	ID           int
	activeCopies int      // copies in flight through this node's memory bus
	nicFreeAt    sim.Time // when the adapter's injection port frees up
	noYieldSpin  int      // tasks spinning without yielding (starves LAPI threads)
}

// Machine binds a Config to a simulation environment plus run statistics.
type Machine struct {
	Env   *sim.Env
	Cfg   Config
	Stats *trace.Stats
	nodes []*Node

	// Faults is the run's fault injector, nil by default. When set, the
	// RMA layer consults it for wire-put faults and the machine for
	// interrupt-storm delivery penalties; nil costs nothing.
	Faults *fault.Injector

	// Buffers recycles payload memory for this machine's single-threaded
	// simulation: transient copies (put snapshots, eager-send copies) and the
	// protocol buffers a collective operation owns from its first member's
	// arrival to its last member's departure. New gives the machine a pool of
	// its own; srmcoll's runs replace it with one checked out of the
	// process-level reserve, before anything has drawn from it.
	Buffers *bufpool.Pool

	// tierPorts[i][g] holds the free-at times of tier i group g's uplink
	// ports; allocated only for tiers with a finite Concurrency.
	tierPorts [][][]sim.Time
	tierSpans []int // cached Cfg.TierSpans()
}

// New creates a machine. It panics on an invalid configuration, since every
// entry point validates configs before reaching here.
func New(env *sim.Env, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Env: env, Cfg: cfg, Stats: &trace.Stats{}, Buffers: bufpool.New()}
	m.nodes = make([]*Node, cfg.Nodes)
	for i := range m.nodes {
		m.nodes[i] = &Node{ID: i}
	}
	if cfg.Hierarchical() {
		m.tierSpans = cfg.TierSpans()
		m.tierPorts = make([][][]sim.Time, len(cfg.Tiers))
		for i, t := range cfg.Tiers {
			if t.Concurrency <= 0 {
				continue
			}
			span := m.tierSpans[i+1]
			groups := (cfg.Nodes + span - 1) / span
			m.tierPorts[i] = make([][]sim.Time, groups)
			for g := range m.tierPorts[i] {
				m.tierPorts[i][g] = make([]sim.Time, t.Concurrency)
			}
		}
	}
	return m
}

// Node returns the state of node id.
func (m *Machine) Node(id int) *Node { return m.nodes[id] }

// P returns the total task count.
func (m *Machine) P() int { return m.Cfg.P() }

// NodeOf returns the node hosting the given global rank (block distribution:
// ranks 0..p-1 on node 0, and so on, matching the paper's task layout).
func (m *Machine) NodeOf(rank int) int { return rank / m.Cfg.TasksPerNode }

// LocalRank returns the rank's index within its node.
func (m *Machine) LocalRank(rank int) int { return rank % m.Cfg.TasksPerNode }

// RankOf returns the global rank of the local task on a node.
func (m *Machine) RankOf(node, local int) int { return node*m.Cfg.TasksPerNode + local }

// SameNode reports whether two ranks share an SMP node.
func (m *Machine) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// daemonsActive reports whether daemon noise applies: the model is on and
// the node's CPUs are fully subscribed by tasks.
func (m *Machine) daemonsActive() bool {
	return m.Cfg.DaemonSlice > 0 && m.Cfg.CPUsPerNode > 0 &&
		m.Cfg.TasksPerNode >= m.Cfg.CPUsPerNode
}

// daemonPhase staggers the daemon activations across nodes; the half-period
// offset keeps the grid off t=0.
func (m *Machine) daemonPhase(node int) sim.Time {
	return m.Cfg.DaemonPeriod * (sim.Time(node) + 0.5) / sim.Time(m.Cfg.Nodes)
}

// DaemonExtra returns the CPU time stolen by daemon activations during a
// busy interval of length d starting now on the node (deterministic:
// activations run at phase + k*period).
func (m *Machine) DaemonExtra(node int, d sim.Time) sim.Time {
	if !m.daemonsActive() || d <= 0 {
		return 0
	}
	period := m.Cfg.DaemonPeriod
	start := m.Env.Now() - m.daemonPhase(node)
	// Activations k with start <= k*period < start+d.
	crossings := math.Ceil((start+d)/period) - math.Ceil(start/period)
	return sim.Time(crossings) * m.Cfg.DaemonSlice
}

// DaemonHit returns the residual daemon occupancy at this instant on the
// node — the delay a point event (a flag wake, a delivery) suffers when it
// lands inside a daemon activation window.
func (m *Machine) DaemonHit(node int) sim.Time {
	if !m.daemonsActive() {
		return 0
	}
	period := m.Cfg.DaemonPeriod
	offset := m.Env.Now() - m.daemonPhase(node)
	into := offset - math.Floor(offset/period)*period
	if into < m.Cfg.DaemonSlice {
		return m.Cfg.DaemonSlice - into
	}
	return 0
}

// copyFactor is the contention multiplier for a copy starting now on node n.
// It is a snapshot: active copies above the bus concurrency stretch the new
// copy proportionally (see DESIGN.md, simulation-fidelity notes).
func (m *Machine) copyFactor(n *Node) float64 {
	active := n.activeCopies + 1
	if active <= m.Cfg.MemBusConcurrency {
		return 1
	}
	return float64(active) / float64(m.Cfg.MemBusConcurrency)
}

// CopyTime returns the uncontended duration of an n-byte intra-node copy.
func (m *Machine) CopyTime(n int) sim.Time {
	return m.Cfg.MemLatency + sim.Time(n)*m.Cfg.MemPerByte
}

// Memcpy is MemcpyT from a process body.
func (m *Machine) Memcpy(p *sim.Proc, node int, dst, src []byte) {
	m.MemcpyT(&p.Task, node, dst, src, p.Resume())
	p.Park()
}

// copyFrame is a pooled continuation frame for a charged copy: the resume
// continuation is bound once per frame, so the millions of charged copies in
// a massive-rank run allocate nothing per call. The frame is live only across
// the copy sleep; a task sleeps on exactly one thing at a time.
type copyFrame struct {
	m        *Machine
	nd       *Node
	id       int // open trace span
	dst, src []byte
	n        int
	move     bool // Memcpy semantics: land the bytes and count the copy
	k        func()
	doneFn   func()
}

var copyFramePool = sync.Pool{New: func() any { return new(copyFrame) }}

func (fr *copyFrame) done() {
	m, nd, id, dst, src, n, move, k := fr.m, fr.nd, fr.id, fr.dst, fr.src, fr.n, fr.move, fr.k
	fr.m = nil
	fr.nd = nil
	fr.dst = nil
	fr.src = nil
	fr.k = nil
	copyFramePool.Put(fr)
	nd.activeCopies--
	m.Env.Trace.End(id)
	if move {
		copy(dst, src)
		m.Stats.AddCopy(n)
	}
	k()
}

// MemcpyT copies src into dst within node id, charging contended copy time to
// the task and recording the copy in Stats; k runs once the bytes have landed.
// len(dst) must equal len(src).
func (m *Machine) MemcpyT(t *sim.Task, node int, dst, src []byte, k func()) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("machine: Memcpy length mismatch %d != %d", len(dst), len(src)))
	}
	m.chargeCopyT(t, node, dst, src, len(src), true, k)
}

// ChargeCopyT charges copy time for n bytes on a node without moving data,
// then runs k; used where the data movement itself is performed by a lower
// layer.
func (m *Machine) ChargeCopyT(t *sim.Task, node, n int, k func()) {
	m.chargeCopyT(t, node, nil, nil, n, false, k)
}

// chargeCopyT charges contended copy time for n bytes through a pooled
// frame; with move set it also lands the bytes and records the copy once
// the sleep elapses (Memcpy semantics — ChargeCopy leaves the data motion
// to a lower layer and records nothing).
func (m *Machine) chargeCopyT(t *sim.Task, node int, dst, src []byte, n int, move bool, k func()) {
	nd := m.nodes[node]
	d := m.CopyTime(n) * m.copyFactor(nd)
	d += m.DaemonExtra(node, d)
	id := m.Env.Trace.Begin(t.Track(), trace.ClassShmCopy, "shm:copy", int64(n))
	nd.activeCopies++
	fr := copyFramePool.Get().(*copyFrame)
	if fr.doneFn == nil {
		fr.doneFn = fr.done // bound once per frame, reused across the pool
	}
	fr.m, fr.nd, fr.id, fr.dst, fr.src, fr.n, fr.move, fr.k = m, nd, id, dst, src, n, move, k
	t.SleepThen(d, fr.doneFn)
}

// ChargeCopy is ChargeCopyT from a process body.
func (m *Machine) ChargeCopy(p *sim.Proc, node, n int) {
	m.ChargeCopyT(&p.Task, node, n, p.Resume())
	p.Park()
}

// CombineTime returns the cost of an elementwise reduction over n bytes.
func (m *Machine) CombineTime(n int) sim.Time {
	return m.Cfg.MemLatency + sim.Time(n)*m.Cfg.ReducePerByte
}

// NetInject reserves the node's adapter injection port for an n-byte
// message starting no earlier than now, and returns the time the message
// has fully left the adapter (injectEnd) and the time it arrives at the
// remote adapter (arrival). The caller is not blocked: injection proceeds
// asynchronously (DMA), only the port timeline is advanced.
func (m *Machine) NetInject(node, n int) (injectEnd, arrival sim.Time) {
	nd := m.nodes[node]
	start := m.Env.Now()
	if nd.nicFreeAt > start {
		start = nd.nicFreeAt
	}
	injectEnd = start + m.Cfg.NetPktOverhead + sim.Time(n)*m.Cfg.NetPerByte
	nd.nicFreeAt = injectEnd
	return injectEnd, injectEnd + m.Cfg.NetLatency
}

// NetInjectTo is the tier-aware NetInject: it reserves src's adapter for
// the local injection exactly as NetInject does, and when the destination
// sits beyond the leaf switch the message additionally serializes through
// one of the crossing tier's uplink ports (earliest-free port, lowest index
// on ties — deterministic) at that tier's rate before covering the tier's
// latency. On a flat topology, or within a leaf switch, it is NetInject
// bit for bit.
func (m *Machine) NetInjectTo(src, dst, n int) (injectEnd, arrival sim.Time) {
	level := m.Cfg.TierOf(src, dst)
	if level <= 1 {
		return m.NetInject(src, n)
	}
	injectEnd, _ = m.NetInject(src, n)
	ti := level - 2
	t := m.Cfg.Tiers[ti]
	ser := t.PktOverhead + sim.Time(n)*t.PerByte
	start := injectEnd
	if ports := m.tierPorts[ti]; ports != nil {
		pg := ports[src/m.tierSpans[ti+1]]
		best := 0
		for i := 1; i < len(pg); i++ {
			if pg[i] < pg[best] {
				best = i
			}
		}
		if pg[best] > start {
			start = pg[best]
		}
		pg[best] = start + ser
	}
	return injectEnd, start + ser + t.Latency
}

// SpinEnter records that a task on node id entered a spin-wait loop.
// Non-yielding spinners starve the communication service threads; the RMA
// layer consults SpinPenalty when delivering to the node.
func (m *Machine) SpinEnter(node int) {
	if !m.Cfg.SpinYield {
		m.nodes[node].noYieldSpin++
	}
}

// SpinExit undoes SpinEnter.
func (m *Machine) SpinExit(node int) {
	if !m.Cfg.SpinYield {
		m.nodes[node].noYieldSpin--
	}
}

// SpinPenalty returns the extra delivery latency on a node caused by
// non-yielding spin loops (zero when the yield policy is on), recording a
// starvation event when it applies.
func (m *Machine) SpinPenalty(node int) sim.Time {
	if m.nodes[node].noYieldSpin > 0 {
		m.Stats.Starves++
		return m.Cfg.StarvePenalty
	}
	return 0
}

// StormPenalty returns the extra delivery latency on a node from any
// injected interrupt storm covering the current virtual time; zero when no
// fault injector is attached.
func (m *Machine) StormPenalty(node int) sim.Time {
	if m.Faults == nil {
		return 0
	}
	return m.Faults.StormDelay(node, m.Env.Now())
}

// WakeLatency is the latency from a flag store to the waiter observing it;
// yielding spin loops give up their time slice and wake slightly later.
func (m *Machine) WakeLatency() sim.Time {
	if m.Cfg.SpinYield {
		return m.Cfg.FlagLatency + m.Cfg.YieldWake
	}
	return m.Cfg.FlagLatency
}
