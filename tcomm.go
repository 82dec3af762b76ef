package srmcoll

// Continuation-passing SPMD bodies. Every rank is a sim.Task, and every
// protocol below the facade is written once, as steps of that task (DESIGN.md
// §13, §15); what the engines choose is the form of the body on top. Run gives
// each rank a process — the task plus a coroutine for a straight-line body —
// and at hundreds of thousands of ranks the goroutine stacks and the switches
// back to the bodies dominate the host cost. RunT executes a
// continuation-passing body, which under EngineTasks is steps of the rank's
// task too: no stack, no switch.
//
// The same RunT body runs on either engine. Under EngineProcs every TComm
// method delegates to the blocking Comm call and invokes its continuation
// synchronously before returning, so RunT(EngineProcs) is Run; under
// EngineTasks the methods start the continuation forms in internal/core
// directly. The two are bit-identical — same Result.Time, PerRank, Stats,
// buffer contents, and trace timings — because below the facade they are the
// same code; what is kept equal by hand is the facade's own pair (Comm and
// TComm, issue and issueT, ftRun and tcall.run).

import (
	"fmt"

	"srmcoll/internal/check"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Engine selects how Run/RunT execute rank bodies.
type Engine int

const (
	// EngineProcs runs each rank's body on a coroutine, as straight-line
	// code — the default, and what Run always does.
	EngineProcs Engine = iota
	// EngineTasks steps each rank's body on the event loop with the rest of
	// its task: no goroutine or stack per rank, so million-rank runs fit in
	// ordinary host memory. Requires the CPS body form of RunT.
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
// Run always uses EngineProcs regardless of this setting.
func (cl *Cluster) SetEngine(e Engine) { cl.engine = e }

// Engine returns the cluster's current execution engine.
func (cl *Cluster) Engine() Engine { return cl.engine }

// TComm is the continuation-passing counterpart of Comm, handed to RunT
// bodies. Every operation takes its success continuation as the final
// argument; the continuation runs exactly once, after the operation
// completes (synchronously under EngineProcs, as a later event-loop step
// under EngineTasks). Identity accessors (Rank, Size, ...) are plain calls.
//
// A handle runs one blocking collective at a time: the next one is started
// from the continuation of the last (or later), never beside it.
type TComm struct {
	c     *Comm
	t     *sim.Task    // nil under EngineProcs
	tcoll tcollectives // nil under EngineProcs
	call  tcall        // the blocking collective in flight, if any
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

// tcall is one collective in progress on the Tasks engine, from the call to
// its continuation: which operation on which buffers, the task it runs on,
// its trace span, and what fault-tolerant execution changed on the task and
// has to put back. A blocking collective uses the frame embedded in its
// handle, bound to it once, so a call allocates nothing; a request, which can
// overlap the rank's other calls, runs in a frame of its own (trequest.go).
type tcall struct {
	collArgs
	tc   *TComm
	t    *sim.Task // the rank's task, or the request helper's
	name string    // "" while the frame is empty
	span int       // the operation's span, closed before k runs
	k    func(error)

	// Set while the operation is registered for failure interrupts.
	registered bool
	prevH      func(any)
	prevArmed  bool

	// Continuations, bound when first needed and kept for the frame's life.
	openFn func()
	finFn  func()
	intrFn func(any)
}

// collArgs names a collective and its arguments as the eleven operations
// share them; each reads the fields its signature has.
type collArgs struct {
	kind       collKind
	send, recv []byte // Bcast's buf is send
	dt         Datatype
	op         Op
	root       int
}

// bytes is the size a collective's spans carry: the caller's contribution, or
// for Scatter its share.
func (a *collArgs) bytes() int64 {
	if a.kind == collScatter {
		return int64(len(a.recv))
	}
	return int64(len(a.send))
}

type collKind uint8

const (
	collBarrier collKind = iota
	collBcast
	collReduce
	collAllreduce
	collGather
	collScatter
	collAllgather
	collAlltoall
	collReduceScatter
	collScan
	collExscan
)

// begin starts a blocking collective on the handle's frame: ordered after
// every outstanding request of the rank (quiesce), under a root trace span,
// fault-tolerantly, mirroring the blocking Comm methods step for step.
func (tc *TComm) begin(name string, a collArgs, k func(error)) {
	f, c := &tc.call, tc.c
	if f.name != "" {
		panic(&check.ReentryError{Op: name, Running: f.name, Rank: c.rank})
	}
	if f.finFn == nil {
		f.tc, f.t, f.finFn = tc, tc.t, f.fin
	}
	f.collArgs, f.name, f.k = a, name, k
	if st := &c.rs.streams[c.rank]; st.tail != nil && !st.tail.Done() {
		if f.openFn == nil {
			f.openFn = f.open
		}
		st.tail.WaitT(tc.t, f.openFn)
		return
	}
	f.open()
}

// open opens the root span of a blocking collective and runs it.
func (f *tcall) open() {
	f.span = f.tc.c.tr.Begin(f.t.Track(), trace.ClassOp, f.name, f.bytes())
	f.run()
}

// run executes the frame's operation fault-sensitively on its task: ftRun in
// continuation-passing form. The continuation receives nil on success, or
// the *RankFailedError when a member declaration interrupts the operation or
// is already known at entry.
func (f *tcall) run() {
	c, t := f.tc.c, f.t
	if ft := c.rs.ft; ft != nil {
		if c.rec.failed > 0 {
			err := c.failedError(f.name)
			f.leave()(err)
			return
		}
		ft.register(t, c.rec)
		f.registered, f.prevH, f.prevArmed = true, t.OnInterrupt, t.UnwindArmed()
		t.SetUnwindArmed(true)
		if f.intrFn == nil {
			f.intrFn = f.interrupted
		}
		t.OnInterrupt = f.intrFn
	}
	coll, rank, fin := f.tc.tcoll, c.rank, f.finFn
	switch f.kind {
	case collBarrier:
		coll.BarrierT(t, rank, fin)
	case collBcast:
		coll.BcastT(t, rank, f.send, f.root, fin)
	case collReduce:
		coll.ReduceT(t, rank, f.send, f.recv, f.dt, f.op, f.root, fin)
	case collAllreduce:
		coll.AllreduceT(t, rank, f.send, f.recv, f.dt, f.op, fin)
	case collGather:
		coll.GatherT(t, rank, f.send, f.recv, f.root, fin)
	case collScatter:
		coll.ScatterT(t, rank, f.send, f.recv, f.root, fin)
	case collAllgather:
		coll.AllgatherT(t, rank, f.send, f.recv, fin)
	case collAlltoall:
		coll.AlltoallT(t, rank, f.send, f.recv, fin)
	case collReduceScatter:
		coll.ReduceScatterT(t, rank, f.send, f.recv, f.dt, f.op, fin)
	case collScan:
		coll.ScanT(t, rank, f.send, f.recv, f.dt, f.op, fin)
	case collExscan:
		coll.ExscanT(t, rank, f.send, f.recv, f.dt, f.op, fin)
	}
}

// fin is the continuation the operation itself receives.
func (f *tcall) fin() { f.leave()(nil) }

// interrupted is the task's OnInterrupt handler while the operation is
// registered.
func (f *tcall) interrupted(payload any) {
	fi, ok := payload.(ftInterrupt)
	if !ok {
		// Not a failure declaration: die with the payload, as a Proc
		// re-panics from ftRun's recover (the armed unwinds run in
		// failTask, like the Proc's defers).
		panic(payload)
	}
	c := f.tc.c
	f.t.RunUnwinds()
	err := &RankFailedError{Op: f.name, Rank: c.rank, Failed: fi.failed}
	k := f.leave()
	// The unwind may have skipped an interrupt re-enable inside the
	// protocol; restoring is idempotent when nothing was pending.
	c.dom.Endpoint(c.rank).SetInterrupts(true)
	k(err)
}

// leave ends the operation on the frame: it puts the task back as run found
// it, closes the span, and returns the continuation. The frame is empty
// before the continuation runs, so the continuation may start the handle's
// next collective.
func (f *tcall) leave() func(error) {
	t, tr, span, k := f.t, f.tc.c.tr, f.span, f.k
	if f.registered {
		t.OnInterrupt = f.prevH
		t.SetUnwindArmed(f.prevArmed)
		f.tc.c.rs.ft.deregister(t)
	}
	*f = tcall{tc: f.tc, t: t, openFn: f.openFn, finFn: f.finFn, intrFn: f.intrFn}
	tr.End(span)
	return k
}

// Barrier blocks until every rank has entered it, then runs k.
func (tc *TComm) Barrier(k func(error)) {
	if tc.t == nil {
		k(tc.c.Barrier())
		return
	}
	tc.begin("barrier", collArgs{kind: collBarrier}, k)
}

// Bcast broadcasts buf from root; see Comm.Bcast.
func (tc *TComm) Bcast(buf []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Bcast(buf, root))
		return
	}
	tc.begin("bcast", collArgs{kind: collBcast, send: buf, root: root}, k)
}

// Reduce combines send across ranks into recv at root; see Comm.Reduce.
func (tc *TComm) Reduce(send, recv []byte, dt Datatype, op Op, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Reduce(send, recv, dt, op, root))
		return
	}
	tc.begin("reduce", collArgs{kind: collReduce, send: send, recv: recv, dt: dt, op: op, root: root}, k)
}

// Allreduce combines send across ranks into every rank's recv.
func (tc *TComm) Allreduce(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Allreduce(send, recv, dt, op))
		return
	}
	tc.begin("allreduce", collArgs{kind: collAllreduce, send: send, recv: recv, dt: dt, op: op}, k)
}

// Gather collects every rank's send block into recv at root.
func (tc *TComm) Gather(send, recv []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Gather(send, recv, root))
		return
	}
	tc.begin("gather", collArgs{kind: collGather, send: send, recv: recv, root: root}, k)
}

// Scatter distributes root's send so each rank receives its block in recv.
func (tc *TComm) Scatter(send, recv []byte, root int, k func(error)) {
	if tc.t == nil {
		k(tc.c.Scatter(send, recv, root))
		return
	}
	tc.begin("scatter", collArgs{kind: collScatter, send: send, recv: recv, root: root}, k)
}

// Allgather concatenates every rank's send block into every rank's recv.
func (tc *TComm) Allgather(send, recv []byte, k func(error)) {
	if tc.t == nil {
		k(tc.c.Allgather(send, recv))
		return
	}
	tc.begin("allgather", collArgs{kind: collAllgather, send: send, recv: recv}, k)
}

// Alltoall exchanges per-rank blocks; see Comm.Alltoall.
func (tc *TComm) Alltoall(send, recv []byte, k func(error)) {
	if tc.t == nil {
		k(tc.c.Alltoall(send, recv))
		return
	}
	tc.begin("alltoall", collArgs{kind: collAlltoall, send: send, recv: recv}, k)
}

// ReduceScatter combines send vectors elementwise and scatters the blocks.
func (tc *TComm) ReduceScatter(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.ReduceScatter(send, recv, dt, op))
		return
	}
	tc.begin("reducescatter", collArgs{kind: collReduceScatter, send: send, recv: recv, dt: dt, op: op}, k)
}

// Scan leaves the inclusive prefix reduction in recv.
func (tc *TComm) Scan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Scan(send, recv, dt, op))
		return
	}
	tc.begin("scan", collArgs{kind: collScan, send: send, recv: recv, dt: dt, op: op}, k)
}

// Exscan is the exclusive prefix reduction; rank 0's recv is zeroed.
func (tc *TComm) Exscan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	if tc.t == nil {
		k(tc.c.Exscan(send, recv, dt, op))
		return
	}
	tc.begin("exscan", collArgs{kind: collExscan, send: send, recv: recv, dt: dt, op: op}, k)
}

// RunT executes a continuation-passing body on every rank of a fresh
// simulation, on the engine selected by SetEngine. The body must call done
// exactly once, after its last operation completed; done marks the rank
// finished (the CPS analogue of returning from a Run body).
//
// Under EngineProcs this delegates to Run — every TComm method completes
// synchronously — which is what the facade's continuation forms are asserted
// bit-identical against. Error reporting matches Run.
func (cl *Cluster) RunT(impl Impl, body func(tc *TComm, done func())) (*Result, error) {
	if cl.engine == EngineProcs {
		return cl.Run(impl, func(c *Comm) { body(c.tc, func() {}) })
	}
	return cl.simulate(impl, EngineTasks, func(sm *simulation) { sm.spawnTasks(body) })
}

// spawnTasks starts body on every rank as a task. The ranks share one start
// function, which finds its handle by the task's index.
func (sm *simulation) spawnTasks(body func(tc *TComm, done func())) {
	tcoll := sm.coll.(tcollectives)
	start := func(t *sim.Task) {
		h := &sm.ranks[t.Num()]
		h.tc.t, h.tc.tcoll = t, tcoll
		body(&h.tc, func() {
			h.c.checkDrained()
			sm.res.PerRank[h.c.rank] = float64(sm.m.Env.Now())
		})
	}
	for r := range sm.rs.tasks {
		t := sm.m.Env.SpawnTask("rank", r, start)
		sm.rs.tasks[r] = t
		if tr := sm.m.Env.Trace; tr != nil {
			t.SetTrack(r)
			tr.NameTrack(r, t.Name())
		}
	}
}
