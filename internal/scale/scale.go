// Package scale is the massive-rank allreduce core: an SMP-aware binomial
// tree (shared-memory combine inside each node, RMA put/counter flow control
// between node masters, §2 of the paper) expressed twice over the simulator's
// two execution engines.
//
// The Procs engine runs one goroutine per rank — the reference semantics the
// rest of the repository uses. The Tasks engine runs the identical protocol
// as resumable state machines stepped directly by the event loop: a parked
// rank is a small struct, not a stack, which is what makes 64k+ ranks cheap.
// Both bodies issue the same primitive schedule call for call, so simulated
// time, per-rank finish times, and the whole statistics block are
// bit-identical between engines — the equivalence tests assert exactly that.
//
// The per-repetition protocol, for payload n on each rank:
//
//  1. intra-node contribute: every non-master copies its vector into the
//     node's contribution segment and sets its flag; the master folds the
//     slots into a private accumulator in local-rank order.
//  2. inter-node reduce: child masters put their accumulator into a
//     dedicated slot at the parent (arrival counter), gated by a one-deep
//     credit the parent returns after folding the slot — so repetition r+1
//     pipelines behind r without overwriting live data.
//  3. inter-node broadcast: the result flows down the same tree into a
//     per-node broadcast buffer, again under one-deep credits.
//  4. intra-node result: the master publishes the result in the node's
//     result segment and bumps the result flag; locals copy it out.
//
// Protocol memory is bounded per node — tpn·n contribution + n result +
// n accumulator + n per tree edge — so the bytes/rank footprint shrinks as
// nodes get wider; Result reports the exact figure.
package scale

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Engine selects how ranks execute.
type Engine int

const (
	// Tasks steps each rank as a resumable state machine on the event
	// loop — the scale engine, and the default.
	Tasks Engine = iota
	// Procs runs each rank as a goroutine process — the conformance
	// reference shared with the rest of the repository.
	Procs
)

func (e Engine) String() string {
	if e == Procs {
		return "procs"
	}
	return "tasks"
}

// Config describes one scale-allreduce run. Payloads are int64 vectors
// combined with sum, so results are exact and independent of combine order.
type Config struct {
	Machine machine.Config
	Bytes   int // payload bytes per rank; rounded up to a multiple of 8
	Reps    int // back-to-back repetitions (pipelined by the credit protocol)
	Engine  Engine

	// Faults optionally injects wire-level faults (channel drops/dups/delays,
	// interrupt storms; set Reliable for the ack/retransmit protocol).
	// Crash and stall scenarios need the chaos runner in package srmcoll.
	Faults *fault.Plan

	// Verify checks every rank's result vector against the exact expected
	// sum after the run. It costs host time proportional to P·Bytes.
	Verify bool

	// Deadline, when positive, bounds virtual time; a run that has not
	// completed by then fails instead of deadlocking silently.
	Deadline sim.Time
}

// Result is the outcome of a run.
type Result struct {
	Time       sim.Time    // virtual completion time of the slowest rank
	PerRank    []sim.Time  // per-rank finish times
	Stats      trace.Stats // machine counters (copies, puts, reduces, ...)
	Events     uint64      // simulator events processed
	ProtoBytes int64       // protocol buffer bytes across all nodes
}

// ProtoBytesPerRank returns the protocol memory footprint per rank.
func (r *Result) ProtoBytesPerRank() float64 {
	if len(r.PerRank) == 0 {
		return 0
	}
	return float64(r.ProtoBytes) / float64(len(r.PerRank))
}

// nodeState is one SMP node's protocol state. Reduce slots and arrival
// counters live at the parent side of a tree edge; credits are one-deep and
// start full, so repetition r+1 overlaps with r without data races.
type nodeState struct {
	id     int
	master int // global rank of local task 0

	contrib   *shm.Segment // tpn slots of n bytes; slot i for local rank i
	contribF  *shm.FlagSet // per-local contribution flags (monotone rep count)
	resultSeg *shm.Segment // published result, n bytes
	resultF   *shm.Flag    // monotone rep count of the published result
	acc       []byte       // master's private accumulator

	parent   int   // parent node id, -1 at the root
	childPos int   // this node's index among its parent's children
	children []int // child node ids, ascending bit order

	rSlots  [][]byte       // per child: reduce landing slot at this master
	rArr    []*rma.Counter // per child: reduce arrival counter
	dCredit []*rma.Counter // per child: broadcast credit, init 1

	upCredit *rma.Counter // reduce credit granted by the parent, init 1
	bBuf     []byte       // broadcast landing buffer (non-root)
	bArr     *rma.Counter // broadcast arrival counter (non-root)
}

// run carries everything shared by the per-rank bodies of both engines.
type run struct {
	cfg     Config
	n       int // payload bytes, multiple of 8
	m       *machine.Machine
	dom     *rma.Domain
	nodes   []*nodeState
	send    [][]byte
	recv    [][]byte
	perRank []sim.Time
	proto   int64
	sms     []rankSM // Tasks engine: per-rank state-machine frames, one slab
}

// Run executes one scale allreduce and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if cfg.Bytes <= 0 {
		cfg.Bytes = 8
	}
	cfg.Bytes = (cfg.Bytes + 7) &^ 7
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	P := cfg.Machine.P()
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(P); err != nil {
			return nil, err
		}
		if len(cfg.Faults.Crashes) > 0 || len(cfg.Faults.Stalls) > 0 {
			return nil, fmt.Errorf("scale: crash/stall faults need the chaos runner (srmcoll.Cluster); the scale core takes channel faults and storms only")
		}
	}

	env := sim.NewEnv()
	m := machine.New(env, cfg.Machine)
	if cfg.Faults != nil && cfg.Faults.Active() {
		m.Faults = fault.New(*cfg.Faults)
	}
	dom := rma.NewDomain(m)
	if cfg.Faults != nil && cfg.Faults.Reliable {
		dom.EnableReliable(cfg.Faults.AckTimeout, cfg.Faults.BackoffCap)
	}

	r := &run{cfg: cfg, n: cfg.Bytes, m: m, dom: dom, perRank: make([]sim.Time, P)}
	r.build()

	switch cfg.Engine {
	case Procs:
		for rank := 0; rank < P; rank++ {
			rank := rank
			env.SpawnIndexed("rank", rank, func(p *sim.Proc) { r.rankProc(p, rank) })
		}
	default:
		// One slab for every rank's continuation frame: a million ranks is
		// one allocation, and each frame's state machine reuses its single
		// stored continuation across all repetitions. The start function is
		// shared too — the task's own index recovers the rank.
		r.sms = make([]rankSM, P)
		body := func(t *sim.Task) { r.rankTask(t, t.Num()) }
		for rank := 0; rank < P; rank++ {
			env.SpawnTask("rank", rank, body)
		}
	}

	var err error
	if cfg.Deadline > 0 {
		err = env.RunUntil(cfg.Deadline)
	} else {
		err = env.Run()
	}
	if err != nil {
		return nil, err
	}
	if env.Live() > 0 {
		return nil, fmt.Errorf("scale: %d ranks still running at virtual deadline %v", env.Live(), cfg.Deadline)
	}

	res := &Result{
		Time:       env.Now(),
		PerRank:    r.perRank,
		Stats:      *m.Stats,
		Events:     env.Events(),
		ProtoBytes: r.proto,
	}
	if cfg.Verify {
		if err := r.verify(); err != nil {
			return nil, err
		}
	}
	// Every rank has finished and the result points at nothing of the
	// simulation: its records go back to the reserve for the next run.
	dom.Release()
	env.Release()
	return res, nil
}

// build allocates the topology, shared-memory regions, per-edge counters,
// and the deterministic input vectors. It is engine-independent, so resource
// creation order — and with it every condition-variable id — is identical
// across engines.
func (r *run) build() {
	m, n := r.m, r.n
	nn := m.Cfg.Nodes
	tpn := m.Cfg.TasksPerNode
	P := m.P()

	r.send = make([][]byte, P)
	r.recv = make([][]byte, P)
	vals := make([]int64, n/8)
	for rank := 0; rank < P; rank++ {
		r.send[rank] = make([]byte, n)
		r.recv[rank] = make([]byte, n)
		for j := range vals {
			vals[j] = inputVal(rank, j)
		}
		dtype.PutInt64s(r.send[rank], vals)
	}

	r.nodes = make([]*nodeState, nn)
	for id := 0; id < nn; id++ {
		ns := &nodeState{id: id, master: m.RankOf(id, 0), parent: -1}
		for mask := 1; mask < nn; mask <<= 1 {
			if id&mask != 0 {
				ns.parent = id &^ mask
				break
			}
			if id|mask < nn {
				ns.children = append(ns.children, id|mask)
			}
		}
		ns.contrib = shm.NewSegment(m, id, tpn*n)
		ns.contribF = shm.NewFlagSet(m, id, tpn)
		ns.resultSeg = shm.NewSegment(m, id, n)
		ns.resultF = shm.NewFlag(m, id)
		ns.acc = make([]byte, n)
		r.proto += int64(tpn*n + 2*n)
		r.nodes[id] = ns
	}
	for _, ns := range r.nodes {
		for ci, ch := range ns.children {
			r.nodes[ch].childPos = ci
			ns.rSlots = append(ns.rSlots, make([]byte, n))
			ns.rArr = append(ns.rArr, r.dom.NewCounter(0))
			ns.dCredit = append(ns.dCredit, r.dom.NewCounter(1))
			r.proto += int64(n)
		}
		if ns.parent >= 0 {
			ns.upCredit = r.dom.NewCounter(1)
			ns.bBuf = make([]byte, n)
			ns.bArr = r.dom.NewCounter(0)
			r.proto += int64(n)
		}
	}
}

// inputVal is rank r's j-th input element. The affine pattern keeps the
// expected sum in closed form without a host-side reduction over all ranks.
func inputVal(rank, j int) int64 { return int64(rank)*31 + int64(j) }

// verify checks every rank's received vector against the exact expected sum
// over all ranks: sum_r (31 r + j) = 31 P(P-1)/2 + P j.
func (r *run) verify() error {
	P := int64(len(r.recv))
	base := 31 * P * (P - 1) / 2
	for rank, buf := range r.recv {
		got := dtype.Int64s(buf)
		for j, v := range got {
			want := base + P*int64(j)
			if v != want {
				return fmt.Errorf("scale: rank %d element %d = %d, want %d", rank, j, v, want)
			}
		}
	}
	return nil
}
