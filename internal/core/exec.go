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
// one on the caller's Task with the *T primitives, passing the continuation
// it bound once; an operation that completes inline is followed immediately
// by the next, one that suspends returns to the event loop and the
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
// queues at most len(exec.q) operations; one that needs more is split across
// two pcs, which runs the same operations in the same order.

type stepper interface {
	step(x *exec, f *frame)
}

// frame is the resumable state of one running body: where it is (pc), its
// loop indices and integer arguments, and its buffer arguments.
type frame struct {
	b        stepper
	pc, span int32 // span: open trace span, closed by end or on abort; -1 when none
	i, j, k  int
	a, c     []byte
}

// maxDepth bounds the sub-body stack: a collective body and the SMP stage
// it calls (publish, consume, reduce worker).
const maxDepth = 2

// subFrame is the frame of an SMP stage while a body has called it. It is not
// part of the executor: a rank waits in a stage for part of a collective at
// most, and in none of the massive-rank allreduce, whose every rank holds an
// executor for the whole call.
type subFrame struct {
	frame
	bufpool.Link[subFrame]
}

// Rewind empties the frame (bufpool.Chunks).
func (f *subFrame) Rewind() { *f = subFrame{} }

type opKind uint8

const (
	opWaitFlag  opKind = iota // flag >= v, or == v with eq
	opWaitFlags               // every flag of rare.set but index w, as opWaitFlag
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

// op is one queued operation of a step. Only the fields its kind names
// are set; i is the progress of an operation performed in several visits.
type op struct {
	kind     opKind
	eq       bool
	i        int32
	v, w     int32
	dst, src []byte
	flag     *shm.Flag
	cntr     *rma.Counter
}

// rare holds the operands that only a few kinds of operation have: the flag
// set of a waitAll or setAll, the own buffer of a first combine, the event
// of an event wait or the one an AM's arrival triggers. One queued operation
// of a step may use it.
type rare struct {
	set *flagSet
	own []byte
	ev  *sim.Event
}

// The bits of exec.bits: the two tail operations, which run in this order
// once the queue has drained, and the rare slot taken.
const (
	bitEnd  = 1 << iota // close the span of the top frame
	bitRet              // pop the top frame
	bitRare             // a queued operation uses exec.rare
)

// exec drives one task — a rank's, or a pipeline helper's beside it — through
// one collective. Executors are the SRM's, on a free list, so a call costs no
// heap object once every concurrently running task has one.
//
// An exec is eight cache lines, so each one in a slab starts on a line, and
// what resume and run read on every visit is on its first: the task, the
// engine, the continuation, the queue's state and the stack depth, with the
// head of the queue right after them.
type exec struct {
	t            *sim.Task
	s            *SRM
	resumeFn     func() // x.resume, bound once for the life of the executor's memory
	ep           *rma.Endpoint
	armed, fired bool  // a *T primitive is running; it called back inline
	qh, qn       uint8 // the queue's head and length
	bits         uint8 // bitEnd, bitRet, bitRare
	depth        uint8
	unwinds      bool  // finish is on the task's unwind stack
	quiet        bool  // interrupts are off at ep until finish
	node, rank   int32 // machine node id and global rank, set by Group.acquire or ScaleAllreduce

	// The operations of the current step not yet performed.
	q    [3]op
	rare rare

	root frame     // the collective's body
	sub  *subFrame // the SMP stage it has called, from SRM.subs; nil when none
	kont func()    // runs after the collective completes

	// Call context, set by Group.acquire: the group, the operation's sequence
	// number, the node index and local index in the group, and the data.
	// ScaleAllreduce, which has no group, sets the indexes and the data.
	g     *Group
	seq   int
	nx, l int
	ds    dataspec

	done    *sim.Event // helper: triggered at finish
	abortFn func()     // x.finish, bound once like resumeFn
	bufpool.Link[exec]
}

// Rewind empties the executor but for its bindings (bufpool.Chunks).
func (x *exec) Rewind() { *x = exec{resumeFn: x.resumeFn, abortFn: x.abortFn} }

// exec returns an executor, bound to the task unless t is nil (spawn binds a
// helper's when the helper starts).
func (s *SRM) exec(t *sim.Task, kont func()) *exec {
	x := s.execs.Get()
	if x.resumeFn == nil {
		x.resumeFn = x.resume
	}
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
		if x.abortFn == nil {
			x.abortFn = x.finish
		}
		t.PushUnwind(x.abortFn)
		x.unwinds = true
	}
}

// finish is the single completion and abort action of a collective: run calls
// it when the root body returns, and bind registers it for an interrupt or
// kill. It closes spans left
// open by an abort, signals a helper's master, re-enables interrupts,
// retires the operation entry and recycles the executor.
func (x *exec) finish() {
	aborted := x.depth > 0
	for x.depth > 0 {
		x.s.m.Env.Trace.End(int(x.top().span))
		x.pop()
	}
	if x.done != nil {
		x.done.Trigger()
	}
	if x.quiet {
		x.ep.SetInterrupts(true)
	}
	if x.g != nil {
		x.g.retire(x.seq, aborted)
	}
	x.s.execs.Put(x)
}

// resume is the continuation every *T primitive receives. Called while the
// primitive is still running it only records that the operation completed
// inline; called later from the event loop it re-enters run.
func (x *exec) resume() {
	if x.armed {
		x.fired = true
		return
	}
	x.run()
}

// run performs queued operations until one suspends, then the tail bits when
// the queue drains, stepping the top frame after that, and completes the
// collective when the root body has returned.
func (x *exec) run() {
	t, m, k := x.t, x.s.m, x.resumeFn
	for {
		for x.qh < x.qn {
			o := &x.q[x.qh]
			last := true // this visit is the operation's last
			x.armed = true
			switch o.kind {
			case opWaitFlag:
				x.waitFlagT(o.flag, o)
			case opWaitFlags:
				// One flag per visit, until every one has been passed.
				if o.i == o.w {
					o.i++
				}
				if set := *x.rare.set; int(o.i) < len(set) {
					last = false
					o.i++
					x.waitFlagT(&set[o.i-1], o)
				} else {
					x.fired = true
				}
			case opWaitEvent:
				x.rare.ev.WaitT(t, k)
			case opWaitCntr:
				x.ep.WaitcntrT(t, o.cntr, int(o.v), k)
			case opWaitValue:
				x.ep.WaitValueT(t, o.cntr, int(o.v), k)
			case opPut:
				x.ep.PutT(t, x.s.dom.Endpoint(int(o.w)), o.dst, o.src, nil, o.cntr, nil, k)
			case opAM:
				ev := x.rare.ev
				x.ep.AMT(t, x.s.dom.Endpoint(int(o.w)), o.src, func([]byte) { ev.Trigger() }, k)
			case opCopy:
				m.MemcpyT(t, int(x.node), o.dst, o.src, k)
			case opCharge, opCombine:
				// Two visits: pay the time, then count the bytes.
				if o.i++; o.i == 2 {
					x.count(o)
					x.fired = true
				} else if last = false; o.kind == opCharge {
					m.ChargeCopyT(t, int(x.node), int(o.v), k)
				} else {
					x.reduce(o)
					t.SleepThen(m.CombineTime(len(o.dst)), k)
				}
			default:
				x.effect(o)
				x.fired = true
			}
			x.armed = false
			if last {
				x.qh++
			}
			if !x.fired {
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
				kont()
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

func (x *exec) waitFlagT(fl *shm.Flag, o *op) {
	if o.eq {
		fl.WaitForT(x.t, int(o.v), x.resumeFn)
	} else {
		fl.WaitGET(x.t, int(o.v), x.resumeFn)
	}
}

// reduce and count are the data and the statistics of opCombine (and
// count the statistics of opCharge).
func (x *exec) reduce(o *op) {
	if o.eq {
		dtype.ReduceInto(x.ds.op, x.ds.dt, o.dst, x.rare.own, o.src)
	} else {
		dtype.Reduce(x.ds.op, x.ds.dt, o.dst, o.src)
	}
}

func (x *exec) count(o *op) {
	if o.kind == opCharge {
		x.s.m.Stats.AddCopy(int(o.v))
	} else {
		x.s.m.Stats.AddReduce(len(o.dst) / max(1, x.ds.dt.Size()))
	}
}

// effect performs an operation that never blocks.
func (x *exec) effect(o *op) {
	switch o.kind {
	case opSet:
		o.flag.Set(int(o.v))
	case opSetAll:
		set := *x.rare.set
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

// push queues o. A step that queues one more than the queue holds, or one
// after end or ret, is a bug in the step.
func (x *exec) push(o op) {
	if x.bits&(bitEnd|bitRet) != 0 {
		panic("core: an operation queued after end or ret")
	}
	if int(x.qn) == len(x.q) {
		panic("core: a step queued more than " + strconv.Itoa(len(x.q)) + " operations; split it across two pcs")
	}
	x.q[x.qn] = o
	x.qn++
}

// useRare takes the rare slot for an operation of the step.
func (x *exec) useRare() *rare {
	if x.bits&bitRare != 0 {
		panic("core: two operations of one step need the rare slot")
	}
	x.bits |= bitRare
	return &x.rare
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
	*f = frame{b: b, pc: int32(pc), k: k, a: a, c: c, span: -1}
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

// waitAllGE waits, in index order, for every flag but set[skip] (-1: none)
// to reach v; waitAllEQ for each to equal v.
func (x *exec) waitAllGE(set *flagSet, v, skip int) {
	x.push(op{kind: opWaitFlags, v: int32(v), w: int32(skip)})
	x.useRare().set = set
}

func (x *exec) waitAllEQ(set *flagSet, v, skip int) {
	x.push(op{kind: opWaitFlags, v: int32(v), w: int32(skip), eq: true})
	x.useRare().set = set
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
// the helper finishes. It acts at once.
func (x *exec) spawn(b stepper, a []byte, done *sim.Event) {
	s := x.s
	h := s.exec(nil, nil)
	h.rank, h.nx, h.l, h.node, h.ep, h.ds, h.done = x.rank, x.nx, x.l, x.node, x.ep, x.ds, done
	h.call(b, 0, 0, a, nil)
	s.m.Env.SpawnTask("srm-arb-", x.nx, func(ht *sim.Task) {
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
