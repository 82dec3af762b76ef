package srmcoll

// The facade, in continuation form. Every rank is a sim.Task, every protocol
// below the facade is written once as steps of that task (DESIGN.md §13, §15),
// and so is every operation of the facade: the eleven collectives here (begin:
// quiesce, root span, fault-sensitive run, end), their non-blocking forms and
// Wait/Test in request.go, Agree and Shrink in ft.go. Each takes the
// continuation to run when it completes and leaves its result in its record
// first. A TComm method passes the caller's continuation; a Comm method passes
// one with nothing to do and returns what the record holds, since on a stack
// every continuation has run by the time the call returns. Comm and TComm are
// two sets of methods over one record (handle), Request and TRequest likewise.
//
// Three things have two forms, all about having a stack or not. An actor gets
// one only where something must block on it: a Run body, a RunT body under
// EngineProcs (the reference side of the equivalence matrix), and the request
// helper of an implementation that is blocking only (the MPI baselines). The
// rank of an EngineTasks run and every SRM request helper are plain tasks.
//
//   - Suspending: actor.wait, sleep and yield hand the continuation to the
//     task's primitive, or block on the stack and then call it.
//   - Dispatching: collArgs.invoke calls the blocking X(p, …), collArgs.start
//     starts XT(t, …, k).
//   - Catching a failure declaration around the dispatch: by recover out of
//     Park, or by the task's OnInterrupt handler (ft_task.go).

import (
	"fmt"
	"strings"

	"srmcoll/internal/check"
	"srmcoll/internal/core"
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
// A rank runs one blocking collective at a time, on whichever of its handles:
// the next is started from the continuation of the last (or later), not beside it.
type TComm struct{ handle }

// actor is who an operation runs on: a task, and the process whose task it is
// when there is a stack to block on.
type actor struct {
	t *sim.Task
	p *sim.Proc // nil: no stack
}

// wait runs k once ev has triggered.
func (a actor) wait(ev *sim.Event, k func()) {
	if a.p == nil {
		ev.WaitT(a.t, k)
		return
	}
	a.p.Wait(ev)
	k()
}

// sleep runs k after d of the actor's virtual time.
func (a actor) sleep(d float64, k func()) {
	if a.p == nil {
		a.t.SleepThen(d, k)
		return
	}
	a.p.Sleep(d)
	k()
}

// yield runs k after whatever else is due at this instant.
func (a actor) yield(k func()) { a.sleep(0, k) }

// Rank returns this task's global rank.
func (tc *TComm) Rank() int { return tc.rank }

// Size returns the number of ranks in this communicator.
func (tc *TComm) Size() int { return len(tc.rec.members) }

// Node returns the SMP node hosting this rank.
func (tc *TComm) Node() int { return tc.m.NodeOf(tc.rank) }

// LocalRank returns this rank's index within its node.
func (tc *TComm) LocalRank() int { return tc.m.LocalRank(tc.rank) }

// Members returns the communicator's global ranks in member order.
func (tc *TComm) Members() []int { return (*Comm)(tc).Members() }

// FailedRanks returns the communicator members declared failed so far.
func (tc *TComm) FailedRanks() []int { return (*Comm)(tc).FailedRanks() }

// Now returns the current virtual time in microseconds.
func (tc *TComm) Now() float64 { return tc.t.Now() }

// Compute advances this rank's virtual clock by us microseconds, then runs k.
func (tc *TComm) Compute(us float64, k func()) { tc.sleep(us, k) }

// Sub returns a communicator over the given subset of global ranks; see
// Comm.Sub for the membership and call-matching rules. Like Comm.Sub it
// returns one canonical handle per (parent, member list).
func (tc *TComm) Sub(members []int) *TComm { return (*TComm)(tc.sub(members)) }

// frame is one collective in progress, from the call to its continuation. A
// blocking collective uses the rank's frame, bound to it once, so a call
// allocates nothing; a request, which can overlap the rank's other calls, runs
// in the frame of its own record (request.go).
type frame struct {
	collArgs
	actor        // the rank's, or the request helper's
	h     handle // the communicator, as the rank that called holds it
	name  string // the operation as spans and errors name it; "" while the frame is empty
	span  int    // the operation's span, closed before k runs
	k     func(error)
	err   error // what the last operation ended with, left for a blocking shim to return

	registered bool // for failure interrupts (ftState.register), from run to end
	// Continuations, bound when first needed and kept for the frame's life.
	openFn, finFn func()
	intrFn        func(any)
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

// bufs returns the buffers the operation owns while it runs, under the labels
// its signature gives them.
func (a *collArgs) bufs() [2]check.Buf {
	if a.kind == collBcast {
		return [2]check.Buf{check.BufOf("buf", a.send)}
	}
	return [2]check.Buf{check.BufOf("send", a.send), check.BufOf("recv", a.recv)}
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

// collNames holds, by kind, the names an operation goes by: the collective's
// in spans and errors, its non-blocking form's public name, that form's request
// in spans, errors and reports, and the request's issue and wait spans.
var collNames = func() (names [collExscan + 1]struct{ op, public, req, issue, wait string }) {
	for kind, op := range [...]string{"Barrier", "Bcast", "Reduce", "Allreduce", "Gather", "Scatter",
		"Allgather", "Alltoall", "ReduceScatter", "Scan", "Exscan"} {
		n := &names[kind]
		n.op, n.public, n.req = strings.ToLower(op), "I"+op, "i"+strings.ToLower(op)
		n.issue, n.wait = "issue:"+n.req, "wait:"+n.req
	}
	return names
}()

// invoke runs the operation from a process and returns when it has completed:
// the form every implementation has.
func (a *collArgs) invoke(coll collectiveOps, p *sim.Proc, rank int) {
	switch a.kind {
	case collBarrier:
		coll.Barrier(p, rank)
	case collBcast:
		coll.Bcast(p, rank, a.send, a.root)
	case collReduce:
		coll.Reduce(p, rank, a.send, a.recv, a.dt, a.op, a.root)
	case collAllreduce:
		coll.Allreduce(p, rank, a.send, a.recv, a.dt, a.op)
	case collGather:
		coll.Gather(p, rank, a.send, a.recv, a.root)
	case collScatter:
		coll.Scatter(p, rank, a.send, a.recv, a.root)
	case collAllgather:
		coll.Allgather(p, rank, a.send, a.recv)
	case collAlltoall:
		coll.Alltoall(p, rank, a.send, a.recv)
	case collReduceScatter:
		coll.ReduceScatter(p, rank, a.send, a.recv, a.dt, a.op)
	case collScan:
		coll.Scan(p, rank, a.send, a.recv, a.dt, a.op)
	case collExscan:
		coll.Exscan(p, rank, a.send, a.recv, a.dt, a.op)
	}
}

// start starts the operation on a task; k runs when it has completed: the form
// SRM has, of which the blocking one is a shim.
func (a *collArgs) start(coll *core.Group, t *sim.Task, rank int, k func()) {
	switch a.kind {
	case collBarrier:
		coll.BarrierT(t, rank, k)
	case collBcast:
		coll.BcastT(t, rank, a.send, a.root, k)
	case collReduce:
		coll.ReduceT(t, rank, a.send, a.recv, a.dt, a.op, a.root, k)
	case collAllreduce:
		coll.AllreduceT(t, rank, a.send, a.recv, a.dt, a.op, k)
	case collGather:
		coll.GatherT(t, rank, a.send, a.recv, a.root, k)
	case collScatter:
		coll.ScatterT(t, rank, a.send, a.recv, a.root, k)
	case collAllgather:
		coll.AllgatherT(t, rank, a.send, a.recv, k)
	case collAlltoall:
		coll.AlltoallT(t, rank, a.send, a.recv, k)
	case collReduceScatter:
		coll.ReduceScatterT(t, rank, a.send, a.recv, a.dt, a.op, k)
	case collScan:
		coll.ScanT(t, rank, a.send, a.recv, a.dt, a.op, k)
	case collExscan:
		coll.ExscanT(t, rank, a.send, a.recv, a.dt, a.op, k)
	}
}

// outstanding returns the completion of the rank's most recent request while it
// is still to come, which a blocking operation waits for first: its protocol
// slices must not interleave with a request still running on the same rank.
func (h handle) outstanding() *sim.Event {
	if tail := h.stream.tail; tail != nil && !tail.Done() {
		return tail
	}
	return nil
}

// begin starts a blocking collective on the rank's frame: after every
// outstanding request of the rank, under a root trace span, fault-sensitively.
// k receives nil, or the *RankFailedError of a member declared failed by then.
func (h handle) begin(a collArgs, k func(error)) {
	f, name := &h.call, collNames[a.kind].op
	if f.name != "" {
		panic(&check.ReentryError{Op: name, Running: f.name, Rank: h.rank})
	}
	f.collArgs, f.actor, f.h, f.name, f.k = a, h.actor, h, name, k
	if tail := h.outstanding(); tail != nil {
		if f.openFn == nil {
			f.openFn = f.open
		}
		h.wait(tail, f.openFn)
		return
	}
	f.open()
}

// open opens the root span of a blocking collective and runs it.
func (f *frame) open() {
	f.span = f.h.tr.Begin(f.t.Track(), trace.ClassOp, f.name, f.bytes())
	f.run()
}

// run executes the frame's operation fault-sensitively on its actor: it refuses
// a communicator with a member declared failed, registers the operation for
// failure interrupts — nothing runs in between, so no declaration can fall
// there — and dispatches it inside the catch its actor needs (ft_task.go).
func (f *frame) run() {
	h := f.h
	if ft := h.rs.ft; ft != nil {
		if h.rec.failed > 0 {
			f.end(h.failedError(f.name))
			return
		}
		ft.register(f.t, h.rec)
		f.registered = true
	}
	if f.p != nil {
		f.end(f.block())
		return
	}
	if f.finFn == nil {
		f.finFn = f.fin
	}
	if f.registered {
		f.arm()
	}
	f.start(h.rec.coll.taskForm(), f.t, h.rank, f.finFn)
}

// fin is the continuation the operation itself receives.
func (f *frame) fin() { f.end(nil) }

// declared turns the payload of an interrupt that unwound the operation into
// the error it ends with; anything but a failure declaration goes on as a panic.
func (f *frame) declared(payload any) error {
	fi, ok := payload.(*ftInterrupt)
	if !ok {
		panic(payload)
	}
	// The unwind may have skipped an interrupt re-enable inside the protocol
	// (the barrier manages interrupts inline); restoring is idempotent when
	// nothing was pending.
	f.h.dom.Endpoint(f.h.rank).SetInterrupts(true)
	return &RankFailedError{Op: f.name, Rank: f.h.rank, Failed: fi.failed}
}

// end ends the operation with err: it puts the task back as run found it,
// closes the span, and runs the continuation, which finds the frame empty and
// may start the rank's next collective.
func (f *frame) end(err error) {
	k := f.k
	if f.registered {
		if f.p == nil { // arm's doing: operations are never nested on one task
			f.t.OnInterrupt = nil
			f.t.SetUnwindArmed(false)
		}
		f.h.rs.ft.deregister(f.t)
		f.registered = false
	}
	f.name, f.k, f.err = "", nil, err
	f.h.tr.End(f.span)
	k(err)
}

// Barrier blocks until every rank has entered it, then runs k.
func (tc *TComm) Barrier(k func(error)) { tc.begin(collArgs{kind: collBarrier}, k) }

// Bcast broadcasts buf from root; see Comm.Bcast.
func (tc *TComm) Bcast(buf []byte, root int, k func(error)) {
	tc.begin(collArgs{kind: collBcast, send: buf, root: root}, k)
}

// Reduce combines send across ranks into recv at root; see Comm.Reduce.
func (tc *TComm) Reduce(send, recv []byte, dt Datatype, op Op, root int, k func(error)) {
	tc.begin(collArgs{kind: collReduce, send: send, recv: recv, dt: dt, op: op, root: root}, k)
}

// Allreduce combines send across ranks into every rank's recv.
func (tc *TComm) Allreduce(send, recv []byte, dt Datatype, op Op, k func(error)) {
	tc.begin(collArgs{kind: collAllreduce, send: send, recv: recv, dt: dt, op: op}, k)
}

// Gather collects every rank's send block into recv at root.
func (tc *TComm) Gather(send, recv []byte, root int, k func(error)) {
	tc.begin(collArgs{kind: collGather, send: send, recv: recv, root: root}, k)
}

// Scatter distributes root's send so each rank receives its block in recv.
func (tc *TComm) Scatter(send, recv []byte, root int, k func(error)) {
	tc.begin(collArgs{kind: collScatter, send: send, recv: recv, root: root}, k)
}

// Allgather concatenates every rank's send block into every rank's recv.
func (tc *TComm) Allgather(send, recv []byte, k func(error)) {
	tc.begin(collArgs{kind: collAllgather, send: send, recv: recv}, k)
}

// Alltoall exchanges per-rank blocks; see Comm.Alltoall.
func (tc *TComm) Alltoall(send, recv []byte, k func(error)) {
	tc.begin(collArgs{kind: collAlltoall, send: send, recv: recv}, k)
}

// ReduceScatter combines send vectors elementwise and scatters the blocks.
func (tc *TComm) ReduceScatter(send, recv []byte, dt Datatype, op Op, k func(error)) {
	tc.begin(collArgs{kind: collReduceScatter, send: send, recv: recv, dt: dt, op: op}, k)
}

// Scan leaves the inclusive prefix reduction in recv.
func (tc *TComm) Scan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	tc.begin(collArgs{kind: collScan, send: send, recv: recv, dt: dt, op: op}, k)
}

// Exscan is the exclusive prefix reduction; rank 0's recv is zeroed.
func (tc *TComm) Exscan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	tc.begin(collArgs{kind: collExscan, send: send, recv: recv, dt: dt, op: op}, k)
}

// RunT executes a continuation-passing body on every rank of a fresh
// simulation, on the engine selected by SetEngine. The body must call done
// exactly once, after its last operation completed; done marks the rank
// finished (the CPS analogue of returning from a Run body).
//
// Under EngineProcs the body runs on a coroutine-backed actor like a Run
// body's — a TComm method returns when its continuation has — which is what
// the stackless form is asserted bit-identical against. Errors are Run's.
func (cl *Cluster) RunT(impl Impl, body func(tc *TComm, done func())) (*Result, error) {
	if cl.engine == EngineProcs {
		return cl.Run(impl, func(c *Comm) { body((*TComm)(c), func() {}) })
	}
	return cl.simulate(impl, EngineTasks, func(sm *simulation) { sm.spawnTasks(body) })
}

// spawnTasks starts body on every rank as a task. The ranks share one start
// function, which finds its handle by the task's index.
func (sm *simulation) spawnTasks(body func(tc *TComm, done func())) {
	start := func(t *sim.Task) {
		c := &sm.rs.ranks[t.Num()].world
		body((*TComm)(c), func() {
			c.checkDrained()
			sm.res.PerRank[c.rank] = t.Now()
		})
	}
	for r := range sm.rs.ranks {
		t := sm.m.Env.SpawnTask("rank", r, start)
		sm.rs.ranks[r].t = t
		sm.nameTrack(t)
	}
}
