// Package scale runs the massive-rank allreduce: an int64 sum over every rank
// of a machine, SMP-aware binomial (a shared-memory combine inside each node,
// RMA put/counter flow control between node masters, §2 of the paper), with
// every repetition pipelined behind the last under one-deep credits. The
// protocol is a stepper of package core (core.SRM.ScaleAllreduce), so a
// parked rank is a 24-byte record beside its task, not a stack nor even an
// executor, which is what makes 64k+ ranks cheap. This package sets a run up — the machine, the fault plan and
// its deadline, deterministic inputs — and reports and verifies it.
//
// Protocol memory is bounded per node — tpn·n contribution + n result +
// n accumulator + n per tree edge at each end — so the bytes/rank footprint
// shrinks as nodes get wider; Result reports the exact figure.
package scale

import (
	"encoding/binary"
	"fmt"
	"math"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/core"
	"srmcoll/internal/dtype"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Deprecated: Engine selects nothing; every rank is a plain task.
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
	Digest     uint64      // the fold of those events (sim.Env.Digest)
	ProtoBytes int64       // protocol buffer bytes across all nodes
}

// ProtoBytesPerRank returns the protocol memory footprint per rank.
func (r *Result) ProtoBytesPerRank() float64 {
	if len(r.PerRank) == 0 {
		return 0
	}
	return float64(r.ProtoBytes) / float64(len(r.PerRank))
}

// Run executes one scale allreduce and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	P, nodes := cfg.Machine.P(), cfg.Machine.Nodes
	// The run holds every rank's send and receive vector and, per node, tpn+4
	// protocol buffers of the payload's size: one whose total overflows int
	// is an error, not a panic.
	if vecs := 2*P + (cfg.Machine.TasksPerNode+4)*nodes; cfg.Bytes > math.MaxInt/vecs-8 {
		return nil, fmt.Errorf("scale: Bytes = %d: %d buffers of that size overflow int", cfg.Bytes, vecs)
	}
	// The repetition travels in the executor's int32 operands.
	if cfg.Reps > math.MaxInt32 {
		return nil, fmt.Errorf("scale: Reps = %d exceeds %d", cfg.Reps, math.MaxInt32)
	}
	if cfg.Bytes <= 0 {
		cfg.Bytes = 8
	}
	n := (cfg.Bytes + 7) &^ 7
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	var plan fault.Plan
	if cfg.Faults != nil {
		plan = *cfg.Faults
	}
	if err := plan.Validate(P, nodes); err != nil {
		return nil, err
	}
	if len(plan.Crashes) > 0 || len(plan.Stalls) > 0 {
		return nil, fmt.Errorf("scale: crash/stall faults need the chaos runner (srmcoll.Cluster); the scale core takes channel faults and storms only")
	}

	env := sim.NewEnv()
	// The payload memory — inputs, results and protocol buffers — comes from
	// the process-level reserve, as a Run's does, and goes back to it however
	// the run ends: nothing executes afterwards.
	m := machine.NewWithPool(env, cfg.Machine, bufpool.CheckOut())
	defer bufpool.HandBack(m.Buffers)
	if plan.Active() {
		m.Faults = fault.New(plan)
	}
	dom := rma.NewDomain(m)
	if plan.Reliable {
		dom.EnableReliable(plan.AckTimeout, plan.BackoffCap)
	}
	s := core.New(m, dom, core.Options{})
	mem := m.Buffers.Get(2 * P * n)
	send, recv := mem[:P*n], mem[P*n:]
	fillInputs(send, n)
	perRank := make([]sim.Time, P)
	s.ScaleAllreduce(cfg.Reps, send, recv, perRank)

	limit := sim.Time(-1) // no deadline
	if plan.Deadline > 0 {
		limit = plan.Deadline
	}
	if err := env.RunUntil(limit); err != nil {
		return nil, err
	}
	if env.Live() > 0 {
		return nil, fault.Stalled(env, m.Faults)
	}

	res := &Result{
		Time:    env.Now(),
		PerRank: perRank,
		Stats:   *m.Stats,
		Events:  env.Events(),
		Digest:  env.Digest(),
		// Per node tpn contributions, the result and the accumulator; per
		// tree edge the slot at the parent and the buffer at the child.
		ProtoBytes: int64(n) * int64(nodes*(cfg.Machine.TasksPerNode+2)+2*(nodes-1)),
	}
	if cfg.Verify {
		if err := verify(recv, P, n); err != nil {
			return nil, err
		}
	}
	// The put path's books balance. The pool's do not apply: the run's one
	// operation never retires, and its buffers stay out until the hand-back.
	if err := dom.Conserved(); err != nil {
		return nil, err
	}
	// Every rank has finished and the result points at nothing of the
	// simulation: its tasks, queue items and frames go back to the reserve
	// for the next run. The engine's records — the executors of the ranks
	// that ran at once, the flags and counters of every node — are left to
	// the collector: the reserve would keep each kind up to its cap through
	// the runs that follow, mostly smaller ones (3 MB more peak RSS in
	// fault_storm's chaos runs).
	// The caller that runs simulations back to back settles them
	// (srmcoll.Cluster.ScaleAllreduce): left to the collector's pacing, the
	// next run's first cycle would find them live and set its heap goal at
	// twice them.
	dom.Release()
	m.Release()
	return res, nil
}

// fillInputs writes every rank's input vector, n bytes each, into send.
// Element j of rank r's is 31 r + j: the affine pattern keeps the expected sum
// in closed form without a host-side reduction over all ranks.
func fillInputs(send []byte, n int) {
	vals := make([]int64, n/8)
	for rank := 0; rank < len(send)/n; rank++ {
		for j := range vals {
			vals[j] = int64(rank)*31 + int64(j)
		}
		dtype.PutInt64s(send[rank*n:], vals)
	}
}

// verify checks every rank's received vector, n bytes each in recv, against
// the exact expected sum over all P ranks: sum_r (31 r + j) = 31 P(P-1)/2 + P j.
func verify(recv []byte, P, n int) error {
	base := int64(31 * P * (P - 1) / 2)
	for i := 0; i < len(recv); i += 8 {
		rank, j := i/n, i%n/8
		if v, want := int64(binary.LittleEndian.Uint64(recv[i:])), base+int64(P*j); v != want {
			return fmt.Errorf("scale: rank %d element %d = %d, want %d", rank, j, v, want)
		}
	}
	return nil
}
