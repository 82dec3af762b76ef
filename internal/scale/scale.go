// Package scale is the massive-rank allreduce core: an SMP-aware binomial
// tree (shared-memory combine inside each node, RMA put/counter flow control
// between node masters, §2 of the paper) whose ranks are resumable state
// machines stepped directly by the event loop. A parked rank is a small
// struct, not a stack, which is what makes 64k+ ranks cheap. The package's
// tests hold the state machine to a straight-line transcription of the same
// protocol on coroutine-backed ranks: the two issue the same primitive
// schedule call for call, so simulated time, per-rank finish times, and the
// whole statistics block are bit-identical.
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
	"encoding/binary"
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Deprecated: Engine selects nothing; every rank is a state machine.
type Engine int

// Deprecated: Tasks selects nothing; see Engine.
const Tasks Engine = 0

// Config describes one scale-allreduce run. Payloads are int64 vectors
// combined with sum, so results are exact and independent of combine order.
type Config struct {
	Machine machine.Config
	Bytes   int // payload bytes per rank; rounded up to a multiple of 8
	Reps    int // back-to-back repetitions (pipelined by the credit protocol)

	// Deprecated: Engine selects nothing; see the Engine type.
	Engine Engine

	// Faults optionally injects wire-level faults (channel drops/dups/delays,
	// interrupt storms; set Reliable for the ack/retransmit protocol), and
	// its Deadline bounds virtual time: a run that has not completed by then
	// fails with a *fault.StallError instead of deadlocking silently. Crash
	// and stall scenarios need the chaos runner in package srmcoll.
	Faults *fault.Plan

	// Verify checks every rank's result vector against the exact expected
	// sum after the run. It costs host time proportional to P·Bytes.
	Verify bool
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

// run carries everything the rank bodies share.
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
	sms     []rankSM // per-rank state-machine frames, one slab
}

// Run executes one scale allreduce and returns its result.
func Run(cfg Config) (*Result, error) { return runWith(cfg, (*run).spawnTasks) }

// runWith is Run with the step that starts the ranks: set-up, the deadline and
// verification are the same whatever runs them.
func runWith(cfg Config, spawn func(*run)) (*Result, error) {
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
	var deadline sim.Time
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(P, cfg.Machine.Nodes); err != nil {
			return nil, err
		}
		if len(cfg.Faults.Crashes) > 0 || len(cfg.Faults.Stalls) > 0 {
			return nil, fmt.Errorf("scale: crash/stall faults need the chaos runner (srmcoll.Cluster); the scale core takes channel faults and storms only")
		}
		deadline = cfg.Faults.Deadline
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
	spawn(r)

	var err error
	if deadline > 0 {
		err = env.RunUntil(deadline)
	} else {
		err = env.Run()
	}
	if err != nil {
		return nil, err
	}
	if env.Live() > 0 {
		return nil, fault.Stalled(env, m.Faults)
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
	m.Release()
	return res, nil
}

// spawnTasks starts every rank as a plain task. One slab holds every rank's
// continuation frame: a million ranks is one allocation, and each frame's
// state machine reuses its single stored continuation across all repetitions.
// The start function is shared too — the task's own index recovers the rank.
func (r *run) spawnTasks() {
	P := r.m.P()
	r.sms = make([]rankSM, P)
	body := func(t *sim.Task) { r.rankTask(t, t.Num()) }
	for rank := 0; rank < P; rank++ {
		r.m.Env.SpawnTask("rank", rank, body)
	}
}

// build allocates the topology, shared-memory regions, per-edge counters,
// and the deterministic input vectors. It runs before any rank is started, so
// resource creation order — and with it every condition-variable id — does
// not depend on how the ranks run. What there is one of per rank, node or tree
// edge is cut from one block per kind: the rows of payload memory (send and
// receive buffers; a node's accumulator, broadcast buffer and the reduce slot
// of each child — every node but the root is one node's child), the node
// states, the child lists and the counters.
func (r *run) build() {
	m, n := r.m, r.n
	nn := m.Cfg.Nodes
	tpn := m.Cfg.TasksPerNode
	P := m.P()

	mem := make([]byte, (2*P+3*nn)*n)
	row := func() []byte {
		b := mem[:n:n]
		mem = mem[n:]
		return b
	}
	r.send = make([][]byte, P)
	r.recv = make([][]byte, P)
	vals := make([]int64, n/8)
	for rank := 0; rank < P; rank++ {
		r.send[rank], r.recv[rank] = row(), row()
		for j := range vals {
			vals[j] = inputVal(rank, j)
		}
		dtype.PutInt64s(r.send[rank], vals)
	}

	states := make([]nodeState, nn)
	kids := make([]int, 0, nn) // every node's children, node by node
	r.nodes = make([]*nodeState, nn)
	for id := range states {
		ns := &states[id]
		ns.id, ns.master, ns.parent = id, m.RankOf(id, 0), -1
		first := len(kids)
		for mask := 1; mask < nn; mask <<= 1 {
			if id&mask != 0 {
				ns.parent = id &^ mask
				break
			}
			if id|mask < nn {
				kids = append(kids, id|mask)
			}
		}
		ns.children = kids[first:len(kids):len(kids)]
		ns.contrib = shm.NewSegment(m, id, tpn*n)
		ns.contribF = shm.NewFlagSet(m, id, tpn)
		ns.resultSeg = shm.NewSegment(m, id, n)
		ns.resultF = shm.NewFlag(m, id)
		ns.acc = row()
		r.proto += int64(tpn*n + 2*n)
		r.nodes[id] = ns
	}
	slots, edges := make([][]byte, len(kids)), make([]*rma.Counter, 2*len(kids))
	cntrs := make([]rma.Counter, 4*len(kids))
	counter := func(initial int) *rma.Counter {
		c := &cntrs[0]
		cntrs = cntrs[1:]
		c.Init(m.Env, initial)
		return c
	}
	for _, ns := range r.nodes {
		k := len(ns.children)
		ns.rSlots, slots = slots[:k:k], slots[k:]
		ns.rArr, ns.dCredit, edges = edges[:k:k], edges[k:2*k:2*k], edges[2*k:]
		for ci, ch := range ns.children {
			r.nodes[ch].childPos = ci
			ns.rSlots[ci] = row()
			ns.rArr[ci] = counter(0)
			ns.dCredit[ci] = counter(1)
			r.proto += int64(n)
		}
		if ns.parent >= 0 {
			ns.upCredit = counter(1)
			ns.bBuf = row()
			ns.bArr = counter(0)
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
		for j := 0; j < len(buf)/8; j++ {
			v, want := int64(binary.LittleEndian.Uint64(buf[8*j:])), base+P*int64(j)
			if v != want {
				return fmt.Errorf("scale: rank %d element %d = %d, want %d", rank, j, v, want)
			}
		}
	}
	return nil
}
