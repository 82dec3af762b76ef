package core

import (
	"math"
	"strconv"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// One body, one driver (DESIGN.md §15). Every collective role is written
// once as a stepper: a step function that looks at its frame (a pc plus loop
// indices), issues the next few operations through the executor, and
// returns. The executor queues the step's operations and performs them one by
// one on the caller's Task with the *T primitives, passing itself as their
// continuation (sim.K); an operation that completes inline is followed
// immediately by the next, one that suspends returns to the event loop and the
// continuation picks the queue up again. When the queue is empty the top
// frame is stepped again. A Proc calls the same thing: the facade's
// frame.block (package srmcoll) and the four SRM.Barrier/Bcast/Reduce/Allreduce
// shims that bench/ calls start Group.XT on the process's Task and park the
// body until it completes.
//
// Because a step returns before its operations have run, a step must obey
// two rules:
//
//   - every effect that has to happen after a blocking operation of the same
//     step (setting a flag, bumping a counter, combining data, closing a
//     span, returning) is itself an operation, never a plain statement;
//   - anything another rank publishes while this one waits (a registered
//     buffer, a publisher's current slice) is read at the top of a later
//     step, never in the step that issues the wait.
//
// call and spawn act at once and so come last (call) or first (spawn). end
// and ret are not queued: they set a bit that runs once the queue has drained,
// so they too come last, and an operation or call after them panics. A step
// queues at most len(opQueue.q) operations; one that needs more is split across
// two pcs, which runs the same operations in the same order.
//
// A task that suspends on the last operation of its step holds no queue, and
// one with operations queued behind the suspending one holds its queue until
// they have run. So a step whose suspension a census shows held by more than a
// thousand ranks at once ends on that operation: what would follow it opens
// the next pc, and a wait on a node's flags walks them a wait a step. A
// stepper whose frames can be rebuilt once the wait is over (parker: scale's
// from its rank alone; the small broadcast's, the RD allreduce's and the
// barrier's, and the SMP stages they call, from the rank, the operation and
// the facade's call, park.go) lets such a rank park without its executor and
// its stage's frame too.

type stepper interface {
	step(x *exec, f *frame)
}

// parker is a root stepper's one optional hook, for a body whose frames can be
// rebuilt after a wait: scale's from its rank (the rank's slices of the call's
// vectors, its node and local index and endpoint); a facade collective's from
// the rank's place, the operation entry and the caller's buffers, which its
// call holds (RankCall), for the root frame and for the SMP stage it has
// called. Before the last operation of a step, when that operation is
// performed in one visit and neither an unwind nor a tail bit holds the
// executor, run asks park for the record that stands in for x as the
// operation's continuation, armed, or nil to keep x. While armed, the record's
// Resume only notes an inline completion, as exec.Resume does, and disarm
// reports it; if the task suspended instead, the executor and the stage's
// frame go back to SRM.execs and SRM.subs, and the record's Resume later takes
// an executor, rebuilds the frames and runs them.
type parker interface {
	park(x *exec, f *frame) parked
}

// parked is a parker's record as run sees it.
type parked interface {
	sim.K
	disarm() (fired bool)
}

// frame is the resumable state of one running body: where it is (pc), its
// loop indices and integer arguments, and its buffer arguments.
type frame struct {
	b        stepper
	pc, span int32 // span: open trace span, closed by end or on abort; -1 when none
	i, j, k  int32
	due      int32 // what a charge or combine of the step counts once its time has passed (bitDue)
	a, c     []byte
}

// maxDepth bounds the sub-body stack: a collective body and the SMP stage
// it calls (publish, consume, reduce worker).
const maxDepth = 2

// subFrame is the frame of an SMP stage while a body has called it. It is not
// part of the executor: a rank waits in a stage for part of a collective at
// most, and in none of the massive-rank allreduce.
type subFrame struct {
	frame
	bufpool.Link[subFrame]
}

type opKind uint8

const (
	opWaitFlag  opKind = iota // flag >= v, or == v with eq
	opWaitEvent               // rare.ev
	opWaitCntr                // Endpoint.Waitcntr: wait for v arrivals and consume them
	opWaitValue               // Counter.WaitValue: the same without entering an RMA call
	opPut                     // to rank w
	opAM                      // to rank w; its arrival triggers rare.ev
	opCopy                    // charged shared-memory copy src -> dst
	opCharge                  // copy time for v bytes the step moved with copy(), then counted
	opCombine                 // dst = rare.own op src with eq, else dst op= src; charged, counted
	opSet                     // flag = v
	opSetAll                  // every flag of rare.set = v
	opIncr                    // cntr += 1
	opIntr                    // the rank's endpoint interrupts on (eq) or off
)

// once reports whether an operation of kind k may suspend and owes nothing
// once it has completed: only then can its task park on it without an
// executor. Every operation is performed in a single visit; a wait on a
// node's flags is one wait a step (waitAt).
func (k opKind) once() bool { return k <= opCopy }

// op is one queued operation of a step. Only the fields its kind names
// are set.
type op struct {
	kind     opKind
	eq       bool
	v, w     int32
	dst, src []byte
	flag     *shm.Flag
	cntr     *rma.Counter
}

// rare holds the operands that only a few kinds of operation have: the flag
// set of a setAll, the own buffer of a first combine, the event
// of an event wait or the one an AM's arrival triggers. One queued operation
// of a step may use it.
type rare struct {
	set *flagSet
	own []byte
	ev  *sim.Event
}

// opQueue is the operations of one step not yet performed, and their rare
// slot. An executor holds one only while it has operations to perform: the
// first push of a step takes it from SRM.queues, and run hands it back when
// the task suspends on the last operation — which reads nothing of it once
// started — or the collective ends. Most ranks of a large collective are
// parked on their last operation at any instant, and hold none.
type opQueue struct {
	q    [3]op
	rare rare
	bufpool.Link[opQueue]
}

// The bits of exec.bits: the two tail operations, which run in this order
// once the queue has drained, the rare slot taken, and a count due.
const (
	bitEnd       = 1 << iota // close the span of the top frame
	bitRet                   // pop the top frame
	bitRare                  // a queued operation uses the queue's rare slot
	bitDue                   // a charge's bytes or a combine's elements (frame.due) are still to be counted
	bitDueReduce             // with bitDue: they are a combine's
)

// exec drives one task — a rank's, or a pipeline helper's beside it — through
// one collective. Executors are the SRM's, on a free list, so a call costs no
// heap object once every concurrently running task has one.
//
// An exec is three cache lines, so each one in a slab starts on a line, and
// what resume and run read on every visit is on its first: the task, the
// engine, the queue and its state and the stack depth.
type exec struct {
	t            *sim.Task
	s            *SRM
	ep           *rma.Endpoint
	armed, fired bool  // a *T primitive is running; it called back inline
	qh, qn       uint8 // the queue's head and length
	bits         uint8 // bitEnd, bitRet, bitRare
	depth        uint8
	unwinds      bool     // finish is on the task's unwind stack
	quiet        bool     // interrupts are off at ep until finish
	node, rank   int32    // machine node id and global rank, set by Group.acquire or ScaleAllreduce
	oq           *opQueue // the current step's operations; nil when none is pending

	root frame     // the collective's body
	sub  *subFrame // the SMP stage it has called, from SRM.subs; nil when none
	kont sim.K     // runs after the collective completes; a pipeline helper's triggers its master's event (spawn)

	// Call context, set by Group.acquire: the group, the operation's sequence
	// number, the node index and local index in the group, and the data of a
	// combine (setSpec). ScaleAllreduce, which has no group, sets the indexes
	// and the data.
	g       *Group
	seq     int32
	nx, l   int32
	dt, dop uint8 // the dataspec, validated before it is set
	bufpool.Link[exec]
}

// setSpec records the data of the collective's combines, which the caller has
// validated: its type and operator are a byte each.
func (x *exec) setSpec(ds dataspec) { x.dt, x.dop = uint8(ds.dt), uint8(ds.op) }

// spec returns the data of the collective's combines.
func (x *exec) spec() dataspec { return dataspec{dtype.Type(x.dt), dtype.Op(x.dop)} }

// trigger is an event as the continuation that triggers it.
type trigger sim.Event

func (e *trigger) Resume() { (*sim.Event)(e).Trigger() }

// execAbort is the executor as the compensation on its task's unwind stack.
type execAbort exec

func (a *execAbort) Resume() { (*exec)(a).finish() }

// exec returns an executor, bound to the task unless t is nil (spawn binds a
// helper's when the helper starts).
func (s *SRM) exec(t *sim.Task, kont sim.K) *exec {
	x := s.execs.Get()
	x.s, x.kont = s, kont
	if t != nil {
		x.bind(t)
	}
	return x
}

// bind attaches the executor to a Task. A step has no stack to unwind, so
// when the task's unwind stack is armed (a Proc's always, a plain task's under
// fault-tolerant execution) finish rides there for an interrupt or kill.
func (x *exec) bind(t *sim.Task) {
	x.t = t
	if t.UnwindArmed() {
		t.PushUnwind((*execAbort)(x))
		x.unwinds = true
	}
}

// finish is the single completion and abort action of a collective: run calls
// it when the root body returns, and bind registers it for an interrupt or
// kill. It closes spans left open by an abort, re-enables interrupts,
// retires the operation entry and recycles the executor. A pipeline helper's
// master is signalled by the helper's kont, which run resumes after finish; a
// helper's task never arms its unwind stack, so no abort runs a helper's finish.
func (x *exec) finish() {
	aborted := x.depth > 0
	for x.depth > 0 {
		x.s.m.Env.Trace.End(int(x.top().span))
		x.pop()
	}
	if x.quiet {
		x.ep.SetInterrupts(true)
	}
	if x.g != nil {
		x.g.retire(int(x.seq), aborted)
	}
	x.dropQueue()
	x.s.execs.Put(x)
}

// dropQueue hands the queue back, if the executor holds one.
func (x *exec) dropQueue() {
	if x.oq != nil {
		x.s.queues.Put(x.oq)
		x.oq = nil
	}
}

// Resume is the continuation every *T primitive receives. Called while the
// primitive is still running it only records that the operation completed
// inline; called later from the event loop it re-enters run.
func (x *exec) Resume() {
	if x.armed {
		x.fired = true
		return
	}
	x.pay()
	x.run()
}

// run performs queued operations until one suspends, then the tail bits when
// the queue drains, stepping the top frame after that, and completes the
// collective when the root body has returned.
func (x *exec) run() {
	t, m := x.t, x.s.m
	for {
		for x.qh < x.qn {
			o := &x.oq.q[x.qh]
			var k sim.K = x
			var pk parked
			if x.qh+1 == x.qn && o.kind.once() && !x.unwinds && x.bits&(bitEnd|bitRet) == 0 {
				if p, ok := x.root.b.(parker); ok {
					if pk = p.park(x, &x.root); pk != nil {
						k = pk
					}
				}
			}
			x.armed = true
			switch o.kind {
			case opWaitFlag:
				x.waitFlagT(o.flag, o, k)
			case opWaitEvent:
				x.oq.rare.ev.WaitK(t, k)
			case opWaitCntr:
				x.ep.WaitcntrK(t, o.cntr, int(o.v), k)
			case opWaitValue:
				x.ep.WaitValueT(t, o.cntr, int(o.v), k)
			case opPut:
				x.ep.PutK(t, x.s.dom.Endpoint(int(o.w)), o.dst, o.src, nil, o.cntr, nil, k)
			case opAM:
				ev := x.oq.rare.ev
				x.ep.AMT(t, x.s.dom.Endpoint(int(o.w)), o.src, func([]byte) { ev.Trigger() }, k)
			case opCopy:
				m.MemcpyT(t, int(x.node), o.dst, o.src, k)
			case opCharge:
				x.owe(int(o.v), 0)
				m.ChargeCopyK(t, int(x.node), int(o.v), x)
			case opCombine:
				x.reduce(o)
				x.owe(len(o.dst)/max(1, x.spec().dt.Size()), bitDueReduce)
				t.SleepK(m.CombineTime(len(o.dst)), x)
			default:
				x.effect(o)
				x.fired = true
			}
			x.armed = false
			if pk != nil && pk.disarm() {
				x.fired = true
			}
			if x.fired {
				x.pay()
			}
			x.qh++
			if !x.fired {
				if x.qh == x.qn {
					// Parked on the step's last operation, which reads
					// nothing of the queue again.
					x.dropQueue()
				}
				if pk != nil {
					// The record stands in for the executor and the
					// stage's frame.
					if x.sub != nil {
						x.s.subs.Put(x.sub)
					}
					x.s.execs.Put(x)
				}
				return
			}
			x.fired = false
		}
		x.qh, x.qn = 0, 0
		if b := x.bits; b != 0 {
			x.bits = 0
			if b&bitEnd != 0 {
				f := x.top()
				m.Env.Trace.End(int(f.span))
				f.span = -1
			}
			if b&bitRet != 0 {
				x.pop()
			}
		}
		if x.depth == 0 {
			if x.unwinds {
				t.PopUnwind()
			}
			kont := x.kont
			x.finish()
			if kont != nil {
				kont.Resume()
			}
			return
		}
		f := x.top()
		f.b.step(x, f)
	}
}

// top returns the frame of the body that runs now.
func (x *exec) top() *frame {
	if x.depth == maxDepth {
		return &x.sub.frame
	}
	return &x.root
}

// pop ends the body that runs now, handing its frame back if it was a stage's.
func (x *exec) pop() {
	if x.depth--; x.depth == maxDepth-1 {
		x.s.subs.Put(x.sub)
		x.sub = nil
	}
}

func (x *exec) waitFlagT(fl *shm.Flag, o *op, k sim.K) {
	if o.eq {
		fl.WaitForK(x.t, int(o.v), k)
	} else {
		fl.WaitGEK(x.t, int(o.v), k)
	}
}

// reduce is the data of opCombine.
func (x *exec) reduce(o *op) {
	ds := x.spec()
	if o.eq {
		dtype.ReduceInto(ds.op, ds.dt, o.dst, x.oq.rare.own, o.src)
	} else {
		dtype.Reduce(ds.op, ds.dt, o.dst, o.src)
	}
}

// owe records what a charge or a combine counts once its time has passed: n
// bytes, or with bitDueReduce n elements. The count waits in the frame, so the
// operation reads nothing of its queue once started, and one that ends its
// step suspends with no queue.
func (x *exec) owe(n int, reduce uint8) {
	x.top().due = int32(n)
	x.bits |= bitDue | reduce
}

// pay counts what a charge or combine owes, once its time has passed.
func (x *exec) pay() {
	if x.bits&bitDue == 0 {
		return
	}
	if n := int(x.top().due); x.bits&bitDueReduce != 0 {
		x.s.m.Stats.AddReduce(n)
	} else {
		x.s.m.Stats.AddCopy(n)
	}
	x.bits &^= bitDue | bitDueReduce
}

// effect performs an operation that never blocks.
func (x *exec) effect(o *op) {
	switch o.kind {
	case opSet:
		o.flag.Set(int(o.v))
	case opSetAll:
		set := *x.oq.rare.set
		for i := range set {
			set[i].Set(int(o.v))
		}
	case opIncr:
		o.cntr.Incr(1)
	case opIntr:
		x.ep.SetInterrupts(o.eq)
		x.quiet = !o.eq
	}
}

// ---- what a step may do ----
//
// Each operation queues itself; run performs it in its turn.

// push queues o, taking a queue for the step's first operation. A step that
// queues one more than the queue holds, or one after end or ret, is a bug in
// the step.
func (x *exec) push(o op) {
	if x.bits&(bitEnd|bitRet) != 0 {
		panic("core: an operation queued after end or ret")
	}
	if x.oq == nil {
		x.oq = x.s.queues.Get()
	}
	if int(x.qn) == len(x.oq.q) {
		panic("core: a step queued more than " + strconv.Itoa(len(x.oq.q)) + " operations; split it across two pcs")
	}
	x.oq.q[x.qn] = o
	x.qn++
}

// useRare takes the rare slot for the operation the step queued last.
func (x *exec) useRare() *rare {
	if x.bits&bitRare != 0 {
		panic("core: two operations of one step need the rare slot")
	}
	x.bits |= bitRare
	return &x.oq.rare
}

// call pushes a sub-body; it acts at once, so it is the last thing a step
// does (operations issued earlier in the step still run first).
func (x *exec) call(b stepper, pc, k int, a, c []byte) *frame {
	if x.bits&(bitEnd|bitRet) != 0 {
		panic("core: a call after end or ret")
	}
	f := &x.root
	switch x.depth {
	case maxDepth:
		panic("core: a call nested deeper than " + strconv.Itoa(maxDepth) + " bodies")
	case maxDepth - 1:
		x.sub = x.s.subs.Get()
		f = &x.sub.frame
	}
	x.depth++
	*f = frame{b: b, pc: int32(pc), k: int32(k), a: a, c: c, span: -1}
	return f
}

// ret ends the current body once the step's operations have run.
func (x *exec) ret() { x.bits |= bitRet }

func (x *exec) waitGE(fl *shm.Flag, v int) {
	x.push(op{kind: opWaitFlag, flag: fl, v: int32(v)})
}

func (x *exec) waitEQ(fl *shm.Flag, v int) {
	x.push(op{kind: opWaitFlag, flag: fl, v: int32(v), eq: true})
}

// waitAt waits, in index order, for every flag of set but set[skip] (-1:
// none) to reach v, or with eq to equal it, a wait a step, so that each wait
// ends its step: it issues the wait for flag *i, moves *i past it and reports
// true, or reports false once every flag has been passed.
func (x *exec) waitAt(set flagSet, v, skip int, eq bool, i *int32) bool {
	if int(*i) == skip {
		*i++
	}
	if int(*i) >= len(set) {
		return false
	}
	x.push(op{kind: opWaitFlag, flag: &set[*i], v: int32(v), eq: eq})
	*i++
	return true
}

func (x *exec) waitEvent(ev *sim.Event) {
	x.push(op{kind: opWaitEvent})
	x.useRare().ev = ev
}

// waitcntr waits for v arrivals at the rank's endpoint and consumes them.
func (x *exec) waitcntr(c *rma.Counter, v int) {
	x.push(op{kind: opWaitCntr, cntr: c, v: int32(v)})
}

// waitValue is waitcntr without entering an RMA call; helpers that share
// their master's endpoint use it so the master's RMA-call bookkeeping stays
// consistent.
func (x *exec) waitValue(c *rma.Counter, v int) {
	x.push(op{kind: opWaitValue, cntr: c, v: int32(v)})
}

// put sends src into dst at the endpoint of rank to and bumps tgt there on
// arrival.
func (x *exec) put(to int, dst, src []byte, tgt *rma.Counter) {
	x.push(op{kind: opPut, w: int32(to), dst: dst, src: src, cntr: tgt})
}

// putZero is the zero-byte flow-control put of §2.4.
func (x *exec) putZero(to int, tgt *rma.Counter) { x.put(to, nil, nil, tgt) }

// am sends payload to rank to as an active message whose arrival triggers ev.
func (x *exec) am(to int, payload []byte, ev *sim.Event) {
	x.push(op{kind: opAM, w: int32(to), src: payload})
	x.useRare().ev = ev
}

func (x *exec) memcpy(dst, src []byte) {
	x.push(op{kind: opCopy, dst: dst, src: src})
}

// chargeCopy charges and counts n bytes the step already moved with copy().
func (x *exec) chargeCopy(n int) {
	if n > math.MaxInt32 {
		panic("core: a copy of " + strconv.Itoa(n) + " bytes in one operation")
	}
	x.push(op{kind: opCharge, v: int32(n)})
}

// combine folds src into dst (dst = own op src when own is non-nil, for a
// first contribution) and charges and counts one elementwise combine.
func (x *exec) combine(dst, own, src []byte) {
	x.push(op{kind: opCombine, dst: dst, src: src, eq: own != nil})
	if own != nil {
		x.useRare().own = own
	}
}

func (x *exec) set(fl *shm.Flag, v int) { x.push(op{kind: opSet, flag: fl, v: int32(v)}) }

func (x *exec) setAll(set *flagSet, v int) {
	x.push(op{kind: opSetAll, v: int32(v)})
	x.useRare().set = set
}

func (x *exec) incr(c *rma.Counter) { x.push(op{kind: opIncr, cntr: c}) }

// interrupts switches the rank's endpoint; finish switches them back on if
// the collective ends, normally or not, while they are off.
func (x *exec) interrupts(on bool) { x.push(op{kind: opIntr, eq: on}) }

// quietNet turns interrupts off at a master for a small-message operation
// (§2.3) until finish. It acts at once: call it before the first operation.
func (x *exec) quietNet(size int) {
	if !x.s.opt.KeepInterrupts && size <= smallMsgInterruptLimit {
		x.ep.SetInterrupts(false)
		x.quiet = true
	}
}

// begin opens a trace span owned by the current frame f; end closes it once
// the step's operations have run.
func (x *exec) begin(f *frame, cl trace.Class, name string, n int) {
	f.span = int32(x.s.m.Env.Trace.Begin(x.t.Track(), cl, name, int64(n)))
}
func (x *exec) end() { x.bits |= bitEnd }

// spawn starts body b at pc 0, with a as its buffer, as a pipeline helper
// beside the caller: a task of its own on the caller's rank; done fires when
// the helper finishes, as the helper's continuation. It acts at once.
func (x *exec) spawn(b stepper, a []byte, done *sim.Event) {
	s := x.s
	h := s.exec(nil, (*trigger)(done))
	h.rank, h.nx, h.l, h.node, h.ep, h.dt, h.dop = x.rank, x.nx, x.l, x.node, x.ep, x.dt, x.dop
	h.call(b, 0, 0, a, nil)
	s.m.Env.SpawnTask("srm-arb-", int(x.nx), func(ht *sim.Task) {
		h.bind(ht)
		// A timeline of its own above the rank tracks, so the helper's spans
		// do not interleave with its master's.
		if tr := s.m.Env.Trace; tr != nil {
			track := s.m.P() + int(h.rank)
			ht.SetTrack(track)
			tr.NameTrack(track, "rank"+strconv.Itoa(int(h.rank))+"-bcast")
		}
		h.run()
	})
}
