package core

import (
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
// call and spawn act at once and so come last (call) or first (spawn).

type stepper interface {
	step(x *exec, f *frame)
}

// frame is the resumable state of one running body: where it is (pc), its
// loop indices and integer arguments, and its buffer arguments.
type frame struct {
	b       stepper
	pc      int
	i, j, k int
	a, c    []byte
	span    int // open trace span, closed by end or on abort; -1 when none
}

// maxDepth bounds the sub-body stack: a collective body and the SMP stage
// it calls (publish, consume, reduce worker).
const maxDepth = 2

type opKind uint8

const (
	opRet       opKind = iota // pop the current frame
	opWaitFlag                // flag >= v, or == v with eq
	opWaitFlags               // every flag of set but index w, as opWaitFlag
	opWaitEvent
	opWaitCntr  // Endpoint.Waitcntr: wait for v arrivals and consume them
	opWaitValue // Counter.WaitValue: the same without entering an RMA call
	opPut
	opAM
	opCopy    // charged shared-memory copy src -> dst
	opCharge  // copy time for v bytes the step moved with copy(), then counted
	opCombine // dst = own op src (dst op= src when own is nil), charged, counted
	opSet     // flag = v
	opSetAll  // every flag of set = v
	opIncr    // cntr += 1
	opIntr    // the rank's endpoint interrupts on (eq) or off
	opEnd     // close the span of frame w
)

// op is one queued operation of a step. Only the fields its kind names
// are set; i is the progress of an operation performed in several visits.
type op struct {
	kind          opKind
	eq            bool
	i             int32
	v, w          int
	dst, src, own []byte
	flag          *shm.Flag
	set           *flagSet
	ev            *sim.Event
	cntr          *rma.Counter
	to            *rma.Endpoint
	am            func([]byte)
}

// exec drives one task — a rank's, or a pipeline helper's beside it — through
// one collective. Executors are the SRM's, on a free list, so a call costs no
// heap object once every concurrently running task has one.
type exec struct {
	s    *SRM
	t    *sim.Task
	kont func() // runs after the collective completes

	// Call context, set by Group.acquire.
	g           *Group
	seq         int
	rank, nx, l int // global rank, node index and local index in the group
	node        int // machine node id
	ep          *rma.Endpoint
	ds          dataspec

	quiet *rma.Endpoint // interrupts are off here until finish
	done  *sim.Event    // helper: triggered at finish
	stack [maxDepth]frame
	depth int

	// The operations of the current step not yet performed (qbuf holds the
	// usual few), whether a *T primitive is running and whether it called
	// back inline, and the continuations bound once.
	q            []op
	qh           int
	qbuf         [4]op
	armed, fired bool
	unwinds      bool // finish is on the task's unwind stack

	// x.resume and x.finish, bound once for the life of the executor's memory.
	resumeFn, abortFn func()
	bufpool.Link[exec]
}

// Rewind empties the executor but for its bindings (bufpool.Chunks).
func (x *exec) Rewind() { *x = exec{resumeFn: x.resumeFn, abortFn: x.abortFn} }

// exec returns an executor, bound to the task unless t is nil (spawn binds a
// helper's when the helper starts).
func (s *SRM) exec(t *sim.Task, kont func()) *exec {
	x := s.execs.Get()
	if x.q == nil {
		x.q = x.qbuf[:0]
	}
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
	for ; x.depth > 0; x.depth-- {
		x.s.m.Env.Trace.End(x.stack[x.depth-1].span)
	}
	if x.done != nil {
		x.done.Trigger()
	}
	if x.quiet != nil {
		x.quiet.SetInterrupts(true)
	}
	if x.g != nil {
		x.g.retire(x.seq, aborted)
	}
	s, q := x.s, x.q[:0]
	clear(x.q) // operations an abort left behind
	s.execs.Put(x)
	x.q = q // idle, it keeps the storage its queue grew for the run
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

// run performs queued operations until one suspends, stepping the top
// frame whenever the queue drains, and completes the collective when the
// root body has returned.
func (x *exec) run() {
	t, m, k := x.t, x.s.m, x.resumeFn
	for {
		for x.qh < len(x.q) {
			o := &x.q[x.qh]
			last := true // this visit is the operation's last
			x.armed = true
			switch o.kind {
			case opWaitFlag:
				x.waitFlagT(o.flag, o)
			case opWaitFlags:
				// One flag per visit, until every one has been passed.
				if int(o.i) == o.w {
					o.i++
				}
				if int(o.i) < len(*o.set) {
					last = false
					o.i++
					x.waitFlagT(&(*o.set)[o.i-1], o)
				} else {
					x.fired = true
				}
			case opWaitEvent:
				o.ev.WaitT(t, k)
			case opWaitCntr:
				x.ep.WaitcntrT(t, o.cntr, o.v, k)
			case opWaitValue:
				x.ep.WaitValueT(t, o.cntr, o.v, k)
			case opPut:
				x.ep.PutT(t, o.to, o.dst, o.src, nil, o.cntr, nil, k)
			case opAM:
				x.ep.AMT(t, o.to, o.src, o.am, k)
			case opCopy:
				m.MemcpyT(t, x.node, o.dst, o.src, k)
			case opCharge, opCombine:
				// Two visits: pay the time, then count the bytes.
				if o.i++; o.i == 2 {
					x.count(o)
					x.fired = true
				} else if last = false; o.kind == opCharge {
					m.ChargeCopyT(t, x.node, o.v, k)
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
		clear(x.q) // drop buffer references; the executor outlives the call
		x.q, x.qh = x.q[:0], 0
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
		f := &x.stack[x.depth-1]
		f.b.step(x, f)
	}
}

func (x *exec) waitFlagT(fl *shm.Flag, o *op) {
	if o.eq {
		fl.WaitForT(x.t, o.v, x.resumeFn)
	} else {
		fl.WaitGET(x.t, o.v, x.resumeFn)
	}
}

// reduce and count are the data and the statistics of opCombine (and
// count the statistics of opCharge).
func (x *exec) reduce(o *op) {
	if o.own != nil {
		dtype.ReduceInto(x.ds.op, x.ds.dt, o.dst, o.own, o.src)
	} else {
		dtype.Reduce(x.ds.op, x.ds.dt, o.dst, o.src)
	}
}

func (x *exec) count(o *op) {
	if o.kind == opCharge {
		x.s.m.Stats.AddCopy(o.v)
	} else {
		x.s.m.Stats.AddReduce(len(o.dst) / max(1, x.ds.dt.Size()))
	}
}

// effect performs an operation that never blocks.
func (x *exec) effect(o *op) {
	switch o.kind {
	case opRet:
		x.depth--
	case opSet:
		o.flag.Set(o.v)
	case opSetAll:
		for i := range *o.set {
			(*o.set)[i].Set(o.v)
		}
	case opIncr:
		o.cntr.Incr(1)
	case opIntr:
		x.ep.SetInterrupts(o.eq)
		x.quiet = nil
		if !o.eq {
			x.quiet = x.ep
		}
	case opEnd:
		f := &x.stack[o.w]
		x.s.m.Env.Trace.End(f.span)
		f.span = -1
	}
}

// ---- what a step may do ----
//
// Each operation queues itself; run performs it in its turn.

// call pushes a sub-body; it acts at once, so it is the last thing a step
// does (operations issued earlier in the step still run first).
func (x *exec) call(b stepper, pc, k int, a, c []byte) *frame {
	f := &x.stack[x.depth]
	x.depth++
	*f = frame{b: b, pc: pc, k: k, a: a, c: c, span: -1}
	return f
}

// ret ends the current body.
func (x *exec) ret() { x.q = append(x.q, op{kind: opRet}) }

func (x *exec) waitGE(fl *shm.Flag, v int) {
	x.q = append(x.q, op{kind: opWaitFlag, flag: fl, v: v})
}

func (x *exec) waitEQ(fl *shm.Flag, v int) {
	x.q = append(x.q, op{kind: opWaitFlag, flag: fl, v: v, eq: true})
}

// waitAllGE waits, in index order, for every flag but set[skip] (-1: none)
// to reach v; waitAllEQ for each to equal v.
func (x *exec) waitAllGE(set *flagSet, v, skip int) {
	x.q = append(x.q, op{kind: opWaitFlags, set: set, v: v, w: skip})
}

func (x *exec) waitAllEQ(set *flagSet, v, skip int) {
	x.q = append(x.q, op{kind: opWaitFlags, set: set, v: v, w: skip, eq: true})
}

func (x *exec) waitEvent(ev *sim.Event) { x.q = append(x.q, op{kind: opWaitEvent, ev: ev}) }

// waitcntr waits for v arrivals at the rank's endpoint and consumes them.
func (x *exec) waitcntr(c *rma.Counter, v int) {
	x.q = append(x.q, op{kind: opWaitCntr, cntr: c, v: v})
}

// waitValue is waitcntr without entering an RMA call; helpers that share
// their master's endpoint use it so the master's RMA-call bookkeeping stays
// consistent.
func (x *exec) waitValue(c *rma.Counter, v int) {
	x.q = append(x.q, op{kind: opWaitValue, cntr: c, v: v})
}

// put sends src into dst at the target and bumps tgt there on arrival.
func (x *exec) put(to *rma.Endpoint, dst, src []byte, tgt *rma.Counter) {
	x.q = append(x.q, op{kind: opPut, to: to, dst: dst, src: src, cntr: tgt})
}

// putZero is the zero-byte flow-control put of §2.4.
func (x *exec) putZero(to *rma.Endpoint, tgt *rma.Counter) { x.put(to, nil, nil, tgt) }

func (x *exec) am(to *rma.Endpoint, payload []byte, h func([]byte)) {
	x.q = append(x.q, op{kind: opAM, to: to, src: payload, am: h})
}

func (x *exec) memcpy(dst, src []byte) {
	x.q = append(x.q, op{kind: opCopy, dst: dst, src: src})
}

// chargeCopy charges and counts n bytes the step already moved with copy().
func (x *exec) chargeCopy(n int) { x.q = append(x.q, op{kind: opCharge, v: n}) }

// combine folds src into dst (dst = own op src when own is non-nil, for a
// first contribution) and charges and counts one elementwise combine.
func (x *exec) combine(dst, own, src []byte) {
	x.q = append(x.q, op{kind: opCombine, dst: dst, own: own, src: src})
}

func (x *exec) set(fl *shm.Flag, v int)    { x.q = append(x.q, op{kind: opSet, flag: fl, v: v}) }
func (x *exec) setAll(set *flagSet, v int) { x.q = append(x.q, op{kind: opSetAll, set: set, v: v}) }
func (x *exec) incr(c *rma.Counter)        { x.q = append(x.q, op{kind: opIncr, cntr: c}) }

// interrupts switches the rank's endpoint; finish switches them back on if
// the collective ends, normally or not, while they are off.
func (x *exec) interrupts(on bool) { x.q = append(x.q, op{kind: opIntr, eq: on}) }

// quietNet turns interrupts off at a master for a small-message operation
// (§2.3) until finish. It acts at once: call it before the first operation.
func (x *exec) quietNet(size int) {
	if !x.s.opt.KeepInterrupts && size <= smallMsgInterruptLimit {
		x.ep.SetInterrupts(false)
		x.quiet = x.ep
	}
}

// begin opens a trace span owned by the current frame f; end closes it.
func (x *exec) begin(f *frame, cl trace.Class, name string, n int) {
	f.span = x.s.m.Env.Trace.Begin(x.t.Track(), cl, name, int64(n))
}
func (x *exec) end() { x.q = append(x.q, op{kind: opEnd, w: x.depth - 1}) }

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
			track := s.m.P() + h.rank
			ht.SetTrack(track)
			tr.NameTrack(track, "rank"+strconv.Itoa(h.rank)+"-bcast")
		}
		h.run()
	})
}
