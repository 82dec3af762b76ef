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
// Two things have two forms, both about having a stack or not. An actor gets
// one only where user code runs on it: a Run body. The rank of a RunT run and
// every request helper are plain tasks. Dispatching has one form under every
// implementation: collArgs.start starts the group's XT(t, …, k), and an actor
// with a stack passes p.Resume() as k and parks (frame.block).
//
//   - Suspending: actor.wait, sleep and yield hand the continuation to the
//     task's primitive, or block on the stack and then call it.
//   - Catching a failure declaration around the dispatch: by recover out of
//     Park, or by the task's interrupt handler (ft_task.go).

import (
	"fmt"
	"strings"

	"srmcoll/internal/check"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Deprecated: Engine selects nothing; RunT's ranks are always plain tasks.
type Engine int

// Deprecated: EngineTasks selects nothing; see Engine.
const EngineTasks Engine = 0

// Deprecated: SetEngine does nothing; see Engine.
func (cl *Cluster) SetEngine(Engine) {}

// TComm is the continuation-passing counterpart of Comm, handed to RunT
// bodies. Every operation takes its success continuation as the final
// argument; the continuation runs exactly once, after the operation
// completes. Identity accessors (Rank, Size, ...) are plain calls.
//
// A rank runs one blocking collective at a time, on whichever of its handles:
// the next is started from the continuation of the last (or later), not beside it.
type TComm struct{ handle }

// actor is who an operation runs on: a task, which is a process's when there is
// a stack to block on (p).
type actor struct{ t *sim.Task }

// p returns the process whose task the actor is, nil when it has no stack.
func (a actor) p() *sim.Proc { return a.t.Proc() }

// wait runs k once ev has triggered.
func (a actor) wait(ev *sim.Event, k sim.K) {
	p := a.p()
	if p == nil {
		ev.WaitK(a.t, k)
		return
	}
	p.Wait(ev)
	k.Resume()
}

// sleep runs k after d of the actor's virtual time.
func (a actor) sleep(d float64, k sim.K) {
	p := a.p()
	if p == nil {
		a.t.SleepK(d, k)
		return
	}
	p.Sleep(d)
	k.Resume()
}

// yield runs k after whatever else is due at this instant.
func (a actor) yield(k sim.K) { a.sleep(0, k) }

// Rank returns this task's global rank.
func (tc *TComm) Rank() int { return tc.rank() }

// Size returns the number of ranks in this communicator.
func (tc *TComm) Size() int { return len(tc.rec.members) }

// Node returns the SMP node hosting this rank.
func (tc *TComm) Node() int { return tc.rs().m.NodeOf(tc.rank()) }

// LocalRank returns this rank's index within its node.
func (tc *TComm) LocalRank() int { return tc.rs().m.LocalRank(tc.rank()) }

// Members returns the communicator's global ranks in member order: the
// communicator's own list, as Comm.Members hands it out.
func (tc *TComm) Members() []int { return (*Comm)(tc).Members() }

// FailedRanks returns the communicator members declared failed so far.
func (tc *TComm) FailedRanks() []int { return (*Comm)(tc).FailedRanks() }

// Now returns the current virtual time in microseconds.
func (tc *TComm) Now() float64 { return tc.call.t.Now() }

// Compute advances this rank's virtual clock by us microseconds, then runs k.
func (tc *TComm) Compute(us float64, k func()) { tc.call.sleep(us, sim.Func(k)) }

// Sub returns a communicator over the given subset of global ranks; see
// Comm.Sub for the membership and call-matching rules. Like Comm.Sub it
// returns one canonical handle per (parent, member list).
func (tc *TComm) Sub(members []int) *TComm { return (*TComm)(tc.sub(members)) }

// frame is one collective in progress, from the call to its continuation. A
// blocking collective uses the rank's frame, so a call allocates nothing; a
// request, which can overlap the rank's other calls, runs in the frame of its
// own record (request.go). The operation resumes the frame when it completes,
// and a wait for the rank's requests resumes it as a frameOpen.
//
// A rank's own frame (rankRec.call) holds the rank's actor for the whole run,
// in flight or not, and is the rank record's only copy of it; what an
// operation is called comes from its kind (name).
type frame struct {
	actor             // the rank's, or the request helper's
	collArgs          // after actor, so that a waiting rank's task and buffers (rankCall.Args) share a cache line
	h          handle // the communicator, as the rank that called holds it
	span       int32  // the operation's span, closed before k runs
	registered bool   // for failure interrupts (ftState.register), from run to end
	k          ender  // nil while the frame is empty
	err        error  // what the last operation ended with, left for a blocking shim to return
}

// name is the operation as spans and errors name it: the collective's name in
// a rank's own frame, its request's in a request's.
func (f *frame) name() string {
	if f == &f.h.call {
		return collNames[f.kind].op
	}
	return collNames[f.kind].req
}

// ender is what an operation ends in: the caller's continuation (endFunc), or
// a request's completion.
type ender interface{ ended(err error) }

type endFunc func(error)

func (k endFunc) ended(err error) { k(err) }

type frameOpen frame

func (o *frameOpen) Resume() { (*frame)(o).open() }

// collArgs names a collective and its arguments as the eleven operations
// share them; each reads the fields its signature has. Every rank's record
// holds one (rankRec.call), so the kind, element type, operator and root share
// one word (newArgs).
type collArgs struct {
	send, recv []byte // Bcast's buf is send
	root       int32
	kind       collKind
	dt         int8 // a Datatype
	op         int8 // an Op
}

// newArgs packs the arguments of a collective that has an element type and
// operator, or a root, or both (zero where it has not). No valid value is past
// what the packed fields hold — a rank is an int32 — so one that is cannot be
// told to the operation and is refused here, as the operation would refuse it.
func newArgs(kind collKind, send, recv []byte, dt Datatype, op Op, root int) collArgs {
	a := collArgs{send: send, recv: recv, root: int32(root), kind: kind, dt: int8(dt), op: int8(op)}
	switch {
	case int(a.root) != root:
		panic(fmt.Errorf("srmcoll: %s: root %d is not a member of the communicator", collNames[kind].op, root))
	case Datatype(a.dt) != dt || Op(a.op) != op:
		panic(fmt.Errorf("srmcoll: %s: no reduction %v over %v", collNames[kind].op, op, dt))
	}
	return a
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

// group is an implementation's operations over a communicator's members,
// each started on a task with the continuation to run once it has completed:
// SRM's (core.Group) or a baseline's (baseline.Group), one method set.
type group interface {
	Members() []int
	Index(rank int) int
	BarrierT(t *sim.Task, rank int, k sim.K)
	BcastT(t *sim.Task, rank int, buf []byte, root int, k sim.K)
	ReduceT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, root int, k sim.K)
	AllreduceT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, k sim.K)
	GatherT(t *sim.Task, rank int, send, recv []byte, root int, k sim.K)
	ScatterT(t *sim.Task, rank int, send, recv []byte, root int, k sim.K)
	AllgatherT(t *sim.Task, rank int, send, recv []byte, k sim.K)
	AlltoallT(t *sim.Task, rank int, send, recv []byte, k sim.K)
	ReduceScatterT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, k sim.K)
	ScanT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, k sim.K)
	ExscanT(t *sim.Task, rank int, send, recv []byte, dt Datatype, op Op, k sim.K)
}

// start starts the operation on a task; k runs when it has completed.
func (a *collArgs) start(coll group, t *sim.Task, rank int, k sim.K) {
	switch a.kind {
	case collBarrier:
		coll.BarrierT(t, rank, k)
	case collBcast:
		coll.BcastT(t, rank, a.send, int(a.root), k)
	case collReduce:
		coll.ReduceT(t, rank, a.send, a.recv, Datatype(a.dt), Op(a.op), int(a.root), k)
	case collAllreduce:
		coll.AllreduceT(t, rank, a.send, a.recv, Datatype(a.dt), Op(a.op), k)
	case collGather:
		coll.GatherT(t, rank, a.send, a.recv, int(a.root), k)
	case collScatter:
		coll.ScatterT(t, rank, a.send, a.recv, int(a.root), k)
	case collAllgather:
		coll.AllgatherT(t, rank, a.send, a.recv, k)
	case collAlltoall:
		coll.AlltoallT(t, rank, a.send, a.recv, k)
	case collReduceScatter:
		coll.ReduceScatterT(t, rank, a.send, a.recv, Datatype(a.dt), Op(a.op), k)
	case collScan:
		coll.ScanT(t, rank, a.send, a.recv, Datatype(a.dt), Op(a.op), k)
	case collExscan:
		coll.ExscanT(t, rank, a.send, a.recv, Datatype(a.dt), Op(a.op), k)
	}
}

// outstanding returns the completion of the rank's most recent request while it
// is still to come, which a blocking operation waits for first: its protocol
// slices must not interleave with a request still running on the same rank.
func (h handle) outstanding() *sim.Event {
	if h.stream != nil && h.stream.tail != nil && !h.stream.tail.Done() {
		return h.stream.tail
	}
	return nil
}

// begin starts a blocking collective on the rank's frame: after every
// outstanding request of the rank, under a root trace span, fault-sensitively.
// k receives nil, or the *RankFailedError of a member declared failed by then.
func (h handle) begin(a collArgs, k func(error)) {
	f := &h.call
	if f.k != nil {
		panic(&check.ReentryError{Op: collNames[a.kind].op, Running: f.name(), Rank: h.rank()})
	}
	f.collArgs, f.h, f.k = a, h, endFunc(k)
	if tail := h.outstanding(); tail != nil {
		h.call.wait(tail, (*frameOpen)(f))
		return
	}
	f.open()
}

// open opens the root span of a blocking collective and runs it.
func (f *frame) open() {
	f.span = int32(f.h.rs().tr.Begin(f.t.Track(), trace.ClassOp, f.name(), f.bytes()))
	f.run()
}

// run executes the frame's operation fault-sensitively on its actor: it refuses
// a communicator with a member declared failed, registers the operation for
// failure interrupts — nothing runs in between, so no declaration can fall
// there — and dispatches it inside the catch its actor needs (ft_task.go).
func (f *frame) run() {
	h := f.h
	if ft := h.rs().ft; ft != nil {
		if h.rec.failed > 0 {
			f.end(h.failedError(f.name()))
			return
		}
		ft.register(f.t, h.rec)
		f.registered = true
	}
	if f.p() != nil {
		f.end(f.block())
		return
	}
	if f.registered {
		f.arm()
	}
	var k sim.K = f
	if f == &h.call {
		k = (*rankCall)(f)
	}
	f.start(h.rec.coll, f.t, h.rank(), k)
}

// Resume is the continuation the operation itself receives.
func (f *frame) Resume() { f.end(nil) }

// rankCall is the rank's own frame as the continuation of its operation: the
// rank's one call in flight, which holds the caller's buffers until it ends,
// so a rank waiting in it needs no executor (core.RankCall).
type rankCall frame

func (r *rankCall) Resume() { (*frame)(r).Resume() }

func (r *rankCall) Args() (t *sim.Task, a, c []byte) { return r.t, r.send, r.recv }

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
	f.h.rs().dom.Endpoint(f.h.rank()).SetInterrupts(true)
	return f.h.rs().failedError(f.name(), f.h.rank(), fi.failed)
}

// end ends the operation with err: it puts the task back as run found it,
// closes the span, and runs the continuation, which finds the frame empty and
// may start the rank's next collective.
func (f *frame) end(err error) {
	k := f.k
	if f.registered {
		if f.p() == nil { // arm's doing: operations are never nested on one task
			f.t.SetOnInterrupt(nil)
			f.t.SetUnwindArmed(false)
		}
		f.h.rs().ft.deregister(f.t)
		f.registered = false
	}
	f.k, f.err = nil, err
	f.h.rs().tr.End(int(f.span))
	k.ended(err)
}

// Barrier blocks until every rank has entered it, then runs k.
func (tc *TComm) Barrier(k func(error)) { tc.begin(collArgs{kind: collBarrier}, k) }

// Bcast broadcasts buf from root; see Comm.Bcast.
func (tc *TComm) Bcast(buf []byte, root int, k func(error)) {
	tc.begin(newArgs(collBcast, buf, nil, 0, 0, root), k)
}

// Reduce combines send across ranks into recv at root; see Comm.Reduce.
func (tc *TComm) Reduce(send, recv []byte, dt Datatype, op Op, root int, k func(error)) {
	tc.begin(newArgs(collReduce, send, recv, dt, op, root), k)
}

// Allreduce combines send across ranks into every rank's recv.
func (tc *TComm) Allreduce(send, recv []byte, dt Datatype, op Op, k func(error)) {
	tc.begin(newArgs(collAllreduce, send, recv, dt, op, 0), k)
}

// Gather collects every rank's send block into recv at root.
func (tc *TComm) Gather(send, recv []byte, root int, k func(error)) {
	tc.begin(newArgs(collGather, send, recv, 0, 0, root), k)
}

// Scatter distributes root's send so each rank receives its block in recv.
func (tc *TComm) Scatter(send, recv []byte, root int, k func(error)) {
	tc.begin(newArgs(collScatter, send, recv, 0, 0, root), k)
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
	tc.begin(newArgs(collReduceScatter, send, recv, dt, op, 0), k)
}

// Scan leaves the inclusive prefix reduction in recv.
func (tc *TComm) Scan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	tc.begin(newArgs(collScan, send, recv, dt, op, 0), k)
}

// Exscan is the exclusive prefix reduction; rank 0's recv is zeroed.
func (tc *TComm) Exscan(send, recv []byte, dt Datatype, op Op, k func(error)) {
	tc.begin(newArgs(collExscan, send, recv, dt, op, 0), k)
}

// RunT executes a continuation-passing body on every rank of a fresh
// simulation, each rank a plain task stepped by the event loop: no goroutine
// or stack per rank, so million-rank runs fit in ordinary host memory. It runs
// every implementation, and its errors are Run's: a baseline with fault
// tolerance on is refused, as Run refuses it.
//
// done marks a rank finished (the CPS analogue of returning from a Run body).
// Every rank is handed the same done, which finishes the rank whose step calls
// it: the body calls it exactly once, after its last operation completed, from
// a step of its rank — a continuation of one of its operations, or of one of
// its requests, whose helper acts for it. A second call for a rank fails the
// run, and a call while no rank's step runs panics, each with a
// *check.DoneError.
func (cl *Cluster) RunT(impl Impl, body func(tc *TComm, done func())) (*Result, error) {
	return cl.simulate(impl, func(sm *simulation) { sm.spawnTasks(body) })
}

// spawnTasks starts body on every rank as a task. The ranks share one start
// function, which finds its handle by the task's index, and one done
// (simulation.done).
func (sm *simulation) spawnTasks(body func(tc *TComm, done func())) {
	done := sm.done
	start := func(t *sim.Task) { body((*TComm)(&sm.rs.ranks[t.Num()].world), done) }
	sm.finished = make([]uint64, (len(sm.rs.ranks)+63)/64)
	sm.m.Env.ReserveTasks(len(sm.rs.ranks))
	for r := range sm.rs.ranks {
		t := sm.m.Env.SpawnTask("rank", r, start)
		sm.rs.ranks[r].call.t = t
		sm.nameTrack(t)
	}
}

// done is RunT's done: it finishes the rank whose step is running, found from
// its task (runState.rankOf) — a closure of its own for each rank would be
// 65,536 objects at rank_ladder's scale.
func (sm *simulation) done() {
	t := sm.m.Env.Running()
	r := -1
	if t != nil {
		r, _ = sm.rs.rankOf(t)
	}
	if r < 0 {
		panic(&check.DoneError{Rank: -1})
	}
	if w, bit := &sm.finished[r/64], uint64(1)<<(r%64); *w&bit == 0 {
		*w |= bit
	} else {
		panic(&check.DoneError{Rank: r, Twice: true})
	}
	sm.rs.ranks[r].world.checkDrained()
	sm.res.PerRank[r] = t.Now()
}
