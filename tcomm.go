package srmcoll

// Task-engine execution of SPMD bodies. The goroutine engine behind Run
// spawns one sim.Proc per rank; at hundreds of thousands of ranks the
// goroutine stacks and coroutine switches dominate the host cost. The Task
// engine instead drives every rank as a resumable state machine on the
// event loop (see internal/sim Task and DESIGN.md §15): RunT executes a
// continuation-passing body on every rank, selected by Cluster.SetEngine.
//
// The same body runs on either engine. Under EngineProcs every TComm
// method delegates to the blocking Comm call and invokes its continuation
// synchronously before returning, so RunT(EngineProcs) is the goroutine
// reference; under EngineTasks the methods dispatch to the Task-native
// collective ports in internal/core. The two engines are bit-identical:
// same Result.Time, PerRank, Stats, buffer contents, and trace timings.

import (
	"errors"
	"fmt"

	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Engine selects how Run/RunT execute rank bodies.
type Engine int

const (
	// EngineProcs runs each rank as a goroutine process — the reference
	// engine, and the default.
	EngineProcs Engine = iota
	// EngineTasks steps each rank as a resumable state machine on the
	// event loop: no goroutine or stack per rank, so million-rank runs fit
	// in ordinary host memory. Requires the CPS body form of RunT.
	EngineTasks
)

// String returns the engine name used in reports.
func (e Engine) String() string {
	switch e {
	case EngineProcs:
		return "procs"
	case EngineTasks:
		return "tasks"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// SetEngine selects the execution engine for subsequent RunT calls.
// Run always uses the goroutine engine regardless of this setting.
func (cl *Cluster) SetEngine(e Engine) { cl.engine = e }

// Engine returns the cluster's current execution engine.
func (cl *Cluster) Engine() Engine { return cl.engine }

// TComm is the continuation-passing counterpart of Comm, handed to RunT
// bodies. Every operation takes its success continuation as the final
// argument; the continuation runs exactly once, after the operation
// completes (synchronously under EngineProcs, as a later event-loop step
// under EngineTasks). Identity accessors (Rank, Size, ...) are plain calls.
type TComm struct {
	c     *Comm
	t     *sim.Task    // nil under EngineProcs
	tcoll tcollectives // nil under EngineProcs
}

// tcollectives is the Task-native operation set mirroring collectives.
type tcollectives interface {
	BarrierT(t *sim.Task, rank int, k func())
	BcastT(t *sim.Task, rank int, buf []byte, root int, k func())
	ReduceT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, root int, k func())
	AllreduceT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, k func())
	GatherT(t *sim.Task, rank int, send, recv []byte, root int, k func())
	ScatterT(t *sim.Task, rank int, send, recv []byte, root int, k func())
	AllgatherT(t *sim.Task, rank int, send, recv []byte, k func())
	AlltoallT(t *sim.Task, rank int, send, recv []byte, k func())
	ReduceScatterT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, k func())
	ScanT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, k func())
	ExscanT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, k func())
}

// Rank returns this task's global rank.
func (tc *TComm) Rank() int { return tc.c.rank }

// Size returns the number of ranks in this communicator.
func (tc *TComm) Size() int { return tc.c.Size() }

// Node returns the SMP node hosting this rank.
func (tc *TComm) Node() int { return tc.c.m.NodeOf(tc.c.rank) }

// LocalRank returns this rank's index within its node.
func (tc *TComm) LocalRank() int { return tc.c.m.LocalRank(tc.c.rank) }

// Members returns the communicator's global ranks in member order.
func (tc *TComm) Members() []int { return tc.c.Members() }

// FailedRanks returns the communicator members declared failed so far.
func (tc *TComm) FailedRanks() []int { return tc.c.FailedRanks() }

// Now returns the current virtual time in microseconds.
func (tc *TComm) Now() float64 {
	if tc.t == nil {
		return tc.c.p.Now()
	}
	return float64(tc.c.rs.env.Now())
}

// Compute advances this rank's virtual clock by us microseconds, then runs k.
func (tc *TComm) Compute(us float64, k func()) {
	if tc.t == nil {
		tc.c.p.Sleep(us)
		k()
		return
	}
	tc.t.SleepThen(sim.Time(us), k)
}

// Sub returns a communicator over the given subset of global ranks; see
// Comm.Sub for the membership and call-matching rules. Like Comm.Sub it
// returns one canonical handle per (parent, member list).
func (tc *TComm) Sub(members []int) *TComm { return tc.wrap(tc.c.Sub(members)) }

// wrap returns the continuation-passing form of a handle of tc's rank.
func (tc *TComm) wrap(s *Comm) *TComm {
	if s.tc == nil {
		s.tc = &TComm{c: s, t: tc.t}
		if tc.t != nil {
			s.tc.tcoll = s.rec.coll.(tcollectives)
		}
	}
	return s.tc
}

// quiesceT is quiesce for the Task engine: order a blocking collective
// after every outstanding request of this rank.
func (tc *TComm) quiesceT(k func()) {
	c := tc.c
	if c.rs == nil {
		k()
		return
	}
	if st := c.rs.streams[c.rank]; st.tail != nil && !st.tail.Done() {
		st.tail.WaitT(tc.t, k)
		return
	}
	k()
}

// opT wraps a Task-engine collective entry: request-stream quiesce, the
// root trace span, and fault-tolerant execution, mirroring the blocking
// Comm methods step for step.
func (tc *TComm) opT(name string, bytes int64, run func(t *sim.Task, fin func()), k func(error)) {
	c := tc.c
	tc.quiesceT(func() {
		id := c.tr.Begin(tc.t.Track(), trace.ClassOp, name, bytes)
		tc.ftRunT(name, tc.t, func(fin func()) { run(tc.t, fin) }, func(err error) {
			c.tr.End(id)
			k(err)
		})
	})
}

// Barrier blocks until every rank has entered it, then runs k.
func (tc *TComm) Barrier(k func(error)) {
	if tc.t == nil {
		k(tc.c.Barrier())
		return
	}
	tc.opT("barrier", 0, func(t *sim.Task, fin func()) {
		tc.tcoll.BarrierT(t, tc.c.rank, fin)
	}, k)
}

// Bcast broadcasts buf from root; see Comm.Bcast.
func (tc *TComm) Bcast(buf []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Bcast(buf, root))
		return
	}
	tc.opT("bcast", int64(len(buf)), func(t *sim.Task, fin func()) {
		tc.tcoll.BcastT(t, tc.c.rank, buf, root, fin)
	}, k)
}

// Reduce combines send across ranks into recv at root; see Comm.Reduce.
func (tc *TComm) Reduce(send, recv []byte, dt Datatype, op Op, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Reduce(send, recv, dt, op, root))
		return
	}
	tc.opT("reduce", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.tcoll.ReduceT(t, tc.c.rank, send, recv, dt, op, root, fin)
	}, k)
}

// Allreduce combines send across ranks into every rank's recv.
func (tc *TComm) Allreduce(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Allreduce(send, recv, dt, op))
		return
	}
	tc.opT("allreduce", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.tcoll.AllreduceT(t, tc.c.rank, send, recv, dt, op, fin)
	}, k)
}

// Gather collects every rank's send block into recv at root.
func (tc *TComm) Gather(send, recv []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Gather(send, recv, root))
		return
	}
	tc.opT("gather", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.tcoll.GatherT(t, tc.c.rank, send, recv, root, fin)
	}, k)
}

// Scatter distributes root's send so each rank receives its block in recv.
func (tc *TComm) Scatter(send, recv []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Scatter(send, recv, root))
		return
	}
	tc.opT("scatter", int64(len(recv)), func(t *sim.Task, fin func()) {
		tc.tcoll.ScatterT(t, tc.c.rank, send, recv, root, fin)
	}, k)
}

// Allgather concatenates every rank's send block into every rank's recv.
func (tc *TComm) Allgather(send, recv []byte, k func(error)) {
	if tc.t == nil {
		k(tc.c.Allgather(send, recv))
		return
	}
	tc.opT("allgather", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.tcoll.AllgatherT(t, tc.c.rank, send, recv, fin)
	}, k)
}

// Alltoall exchanges per-rank blocks; see Comm.Alltoall.
func (tc *TComm) Alltoall(send, recv []byte, k func(error)) {
	if tc.t == nil {
		k(tc.c.Alltoall(send, recv))
		return
	}
	tc.opT("alltoall", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.tcoll.AlltoallT(t, tc.c.rank, send, recv, fin)
	}, k)
}

// ReduceScatter combines send vectors elementwise and scatters the blocks.
func (tc *TComm) ReduceScatter(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.ReduceScatter(send, recv, dt, op))
		return
	}
	tc.opT("reducescatter", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.tcoll.ReduceScatterT(t, tc.c.rank, send, recv, dt, op, fin)
	}, k)
}

// Scan leaves the inclusive prefix reduction in recv.
func (tc *TComm) Scan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Scan(send, recv, dt, op))
		return
	}
	tc.opT("scan", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.tcoll.ScanT(t, tc.c.rank, send, recv, dt, op, fin)
	}, k)
}

// Exscan is the exclusive prefix reduction; rank 0's recv is zeroed.
func (tc *TComm) Exscan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Exscan(send, recv, dt, op))
		return
	}
	tc.opT("exscan", int64(len(send)), func(t *sim.Task, fin func()) {
		tc.tcoll.ExscanT(t, tc.c.rank, send, recv, dt, op, fin)
	}, k)
}

// RunT executes a continuation-passing body on every rank of a fresh
// simulation, on the engine selected by SetEngine. The body must call done
// exactly once, after its last operation completed; done marks the rank
// finished (the CPS analogue of returning from a Run body).
//
// Under EngineProcs this delegates to Run — every TComm method completes
// synchronously — making it the conformance reference the Task engine is
// asserted bit-identical against. Error reporting matches Run.
func (cl *Cluster) RunT(impl Impl, body func(tc *TComm, done func())) (*Result, error) {
	if cl.engine == EngineProcs {
		return cl.Run(impl, func(c *Comm) {
			body(&TComm{c: c}, func() {})
		})
	}
	var fresh int64
	res, err := cl.runTasks(impl, body, &fresh)
	settle(fresh)
	return res, err
}

// runTasks is RunT on the Tasks engine, before settling (see Cluster.run).
func (cl *Cluster) runTasks(impl Impl, body func(tc *TComm, done func()), fresh *int64) (*Result, error) {
	if impl != SRM {
		return nil, fmt.Errorf("srmcoll: the Tasks engine supports only the SRM implementation (got %s); use EngineProcs for baselines", impl)
	}
	if err := cl.faults.Validate(cl.cfg.P()); err != nil {
		return nil, err
	}
	if len(cl.faults.Stalls) > 0 {
		return nil, fmt.Errorf("srmcoll: stall fault windows require EngineProcs (per-task slowdown has no Task-engine equivalent)")
	}
	env := sim.NewEnv()
	m := machine.New(env, cl.cfg)
	defer func() { *fresh = m.Buffers.Fresh() }()
	var inj *fault.Injector
	if cl.faults.Active() {
		inj = fault.New(cl.faults)
		m.Faults = inj
	}
	dom := rma.NewDomain(m)
	if cl.faults.Reliable {
		dom.EnableReliable(cl.faults.AckTimeout, cl.faults.BackoffCap)
	}
	tcoll := cl.newSRM(m, dom)
	if cl.tracing {
		env.Trace = trace.New(env.Now)
	}
	counters := make(map[string]*SharedCounter)
	rs := newRunState(env, m.P())
	world := rs.newWorld(m.P(), tcoll)
	res := &Result{PerRank: make([]float64, m.P()), Trace: env.Trace}
	tasks := make([]*sim.Task, m.P())
	rs.tasks = tasks
	var ft *ftState
	if cl.ft.Enabled {
		ft = newFTState(env, dom.MarkDead, m.P(), rs, cl.ft)
		rs.ft = ft
		env.OnTaskFailure = func(t *sim.Task, f sim.ProcFailure) { ft.onFailure(f) }
	}
	if inj != nil {
		cl.scheduleFaultsT(env, inj, tasks)
	}
	for r := 0; r < m.P(); r++ {
		r := r
		tasks[r] = env.SpawnTask("rank", r, func(t *sim.Task) {
			comm := &Comm{rank: r, rec: world, m: m, dom: dom,
				counters: counters, tr: env.Trace, rs: rs}
			tc := &TComm{c: comm, t: t, tcoll: tcoll}
			body(tc, func() {
				comm.checkDrained()
				res.PerRank[r] = float64(env.Now())
			})
		})
		if env.Trace != nil {
			tasks[r].SetTrack(r)
			env.Trace.NameTrack(r, tasks[r].Name())
		}
	}

	var runErr error
	if cl.faults.Deadline > 0 {
		runErr = env.RunUntil(cl.faults.Deadline)
	} else {
		runErr = env.Run()
	}
	var ce *sim.CrashError
	if errors.As(runErr, &ce) {
		if ft == nil || len(ft.unexpected) > 0 {
			first := ce.Failures[0]
			if ft != nil {
				first = ft.unexpected[0]
			}
			return nil, rs.runError(first)
		}
		runErr = nil
	}
	if runErr == nil && env.Live() > 0 {
		if env.Idle() {
			return nil, env.DeadlockReport()
		}
		var sum FaultSummary
		if inj != nil {
			sum = inj.Summary()
		}
		return nil, &StallError{Time: env.Now(), Blocked: env.Blocked(), Faults: sum}
	}
	if runErr != nil {
		return nil, runErr
	}
	for _, ti := range res.PerRank {
		if ti > res.Time {
			res.Time = ti
		}
	}
	res.Stats = *m.Stats
	res.Events = env.Events()
	if inj != nil {
		res.Faults = inj.Summary()
	}
	if ft != nil {
		res.Failures = ft.failures
		res.Repairs = ft.repairs
	}
	return res, nil
}

// scheduleFaultsT wires the plan's crashes to the spawned rank tasks.
// Stall windows are rejected before RunT gets here.
func (cl *Cluster) scheduleFaultsT(env *sim.Env, inj *fault.Injector, tasks []*sim.Task) {
	for _, cr := range cl.faults.Crashes {
		cr := cr
		env.At(cr.At, func() {
			inj.CountCrash()
			env.KillTask(tasks[cr.Rank], fmt.Sprintf("injected crash of rank %d at t=%.3f", cr.Rank, cr.At))
		})
	}
}
