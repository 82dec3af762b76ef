// Package mpi models an MPI-like point-to-point message-passing layer of
// the kind the paper's baselines (IBM MPI and MPICH) build collectives on:
// blocking send/receive with tag matching, an unexpected-message queue, and
// the Eager/Rendezvous protocol split, running over two devices — shared
// memory inside an SMP node and the network between nodes.
//
// The layer reproduces the overheads §2.3 attributes to implementing
// collectives over point-to-point MPI: per-call software overhead, tag
// matching, early-arrival buffering (extra copies), bounce-buffer copies on
// the shared-memory device, and an Eager limit that the IBM protocol
// shrinks as the task count grows.
package mpi

import (
	"fmt"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

// Any is the wildcard for Recv's source or tag.
const Any = -1

// headerBytes is the size of a control message (RTS/CTS) or message header.
const headerBytes = 32

// Protocol describes one MPI implementation's protocol policy.
type Protocol struct {
	Name string

	// FixedEager, when positive, is a task-count-independent Eager limit.
	// Otherwise the IBM table applies: the limit shrinks as tasks grow
	// (4096 bytes up to 16 tasks, halving per doubling, floor 256).
	FixedEager int

	// ExtraOverhead is added to every send/receive call; it models extra
	// software layers (MPICH runs on MPL on MPCI on the SP).
	ExtraOverhead sim.Time

	// ExtraPerByte is an additional per-byte cost on the send side
	// (internal staging in deeper stacks).
	ExtraPerByte sim.Time
}

// IBM returns the protocol policy of the vendor MPI: no extra stack layers,
// Eager limit scaled down with the number of tasks (§2.3).
func IBM() Protocol { return Protocol{Name: "ibm-mpi"} }

// MPICH returns the MPICH-over-MPL policy: a fixed Eager limit but extra
// per-call and per-byte overhead from the deeper protocol stack.
func MPICH() Protocol {
	return Protocol{
		Name:          "mpich",
		FixedEager:    16 << 10,
		ExtraOverhead: 3.2,
		ExtraPerByte:  0.0008,
	}
}

// EagerLimit returns the Eager/Rendezvous switch point for a job of ntasks.
func (pr Protocol) EagerLimit(ntasks int) int {
	if pr.FixedEager > 0 {
		return pr.FixedEager
	}
	limit := 4096
	for n := 16; ntasks > n && limit > 256; n *= 2 {
		limit /= 2
	}
	return limit
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// World is a communication world: one endpoint per rank over a machine.
//
// Every operation is written once, in continuation form (SendT, RecvT, ...),
// as steps of the calling task. The records a transmission needs — the
// operations on both sides, the message with its events, its rendezvous pipe
// and the receive it lands in, and the request a helper runs — come from free
// lists of the world's, so a send and its receive allocate nothing once the
// lists have warmed up; the helpers' tasks are reused by the environment
// (sim.Env.SpawnTaskK). Release hands the lists' memory back to the reserve; a
// world that is dropped without it leaves them to the collector.
type World struct {
	m     *machine.Machine
	proto Protocol
	ranks []Rank
	ops   bufpool.Frames[op, *op]
	msgs  bufpool.Frames[message, *message]
	reqs  bufpool.Frames[Request, *Request]
}

// NewWorld builds the world with the given protocol policy.
func NewWorld(m *machine.Machine, proto Protocol) *World {
	w := &World{m: m, proto: proto, ranks: make([]Rank, m.P())}
	for r := range w.ranks {
		w.ranks[r] = Rank{w: w, rank: r, node: m.NodeOf(r)}
	}
	return w
}

// Release hands the world's records back to the process-level reserve. Only
// for a world whose simulation is over and ended with no task parked in
// it: every operation, message, receive and request is dead, and the caller drops the
// world.
func (w *World) Release() {
	w.ops.Release()
	w.msgs.Release()
	w.reqs.Release()
	w.ranks = nil // a use after release is a crash, not a message of another run
}

// Machine returns the underlying machine.
func (w *World) Machine() *machine.Machine { return w.m }

// Rank returns endpoint r.
func (w *World) Rank(r int) *Rank { return &w.ranks[r] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

type msgKind int

const (
	eagerShm msgKind = iota
	eagerNet
	rndvShm
	rndvNet
)

// message is one transmission, from the send that draws it to the last touch
// of whichever side is done with it last (holds), when it goes back on the
// world's list. It resumes as itself — its arrival at the receiver — and as
// the named types below for its other scheduled steps, so scheduling one binds
// nothing.
//
// A receive that finds no message waiting posts a record of the same type,
// whose done the matching message's arrival triggers after setting matched.
type message struct {
	bufpool.Link[message]
	kind  msgKind
	src   int
	tag   int
	size  int
	dst   *Rank    // the receiver
	data  []byte   // owned payload for eager kinds
	rq    recvReq  // the receive that matched it, set before consume
	holds int      // the sides that still touch it: the receiver, and the sender of a rendezvous
	next  *message // the queue it waits in (posted or unexpected)

	// A posted receive.
	done    sim.Event
	matched *message

	// Rendezvous state.
	senderGo sim.Event // shm: wakes the sender to start the pipe
	pipe     shmPipe   // shm: shared double-buffered channel
	cts      sim.Event // net: fires at the sender when CTS arrives
	dataDone sim.Event // net: fires at the receiver when data landed
}

// newMessage draws a record for a transmission of size bytes from r to target.
func (r *Rank) newMessage(kind msgKind, target *Rank, tag, size int) *message {
	msg := r.w.msgs.Get()
	msg.kind, msg.src, msg.tag, msg.size, msg.dst, msg.holds = kind, r.rank, tag, size, target, 1
	if kind == rndvShm || kind == rndvNet {
		msg.holds = 2
	}
	return msg
}

// leave is a side's last touch of the message; the last side's puts it back.
func (msg *message) leave() {
	if msg.holds--; msg.holds == 0 {
		msg.dst.w.msgs.Put(msg)
	}
}

// Resume is the message's arrival at its receiver.
func (msg *message) Resume() { msg.dst.arrive(msg) }

// The message as its other scheduled steps: tag matching at the receiver once
// its cost has passed, and the net rendezvous' CTS reaching the sender, the
// data reaching the receiver's adapter, and the receive's completion one
// receive overhead later.
type (
	msgMatch  message
	msgCTS    message
	msgLanded message
	msgDone   message
)

func (x *msgMatch) Resume() { (*message)(x).dst.match((*message)(x)) }
func (x *msgCTS) Resume()   { x.cts.Trigger() }
func (x *msgLanded) Resume() {
	x.dst.w.m.Env.AfterK(x.dst.w.m.Cfg.RecvOverhead, (*msgDone)(x))
}
func (x *msgDone) Resume() { x.dataDone.Trigger() }

// msgQueue is a FIFO of records threaded through message.next.
type msgQueue struct {
	head, tail *message
	n          int
}

func (q *msgQueue) push(msg *message) {
	if q.tail == nil {
		q.head = msg
	} else {
		q.tail.next = msg
	}
	q.tail = msg
	q.n++
}

// take unlinks and returns the first record ok accepts, or nil.
func (q *msgQueue) take(ok func(x *message) bool) *message {
	var prev *message
	for x := q.head; x != nil; prev, x = x, x.next {
		if !ok(x) {
			continue
		}
		if prev == nil {
			q.head = x.next
		} else {
			prev.next = x.next
		}
		if q.tail == x {
			q.tail = prev
		}
		x.next = nil
		q.n--
		return x
	}
	return nil
}

// matches reports whether a receive pattern (either part may be Any) accepts
// a message from src with tag.
func matches(psrc, ptag, src, tag int) bool {
	return (psrc == Any || psrc == src) && (ptag == Any || ptag == tag)
}

// Fold makes a receive combine the message into its buffer instead of
// overwriting it, elementwise under Op over elements of Type: buf = Own op
// payload when Own is set — a first contribution, so buf's old bytes are never
// read — and buf = buf op payload otherwise. Own must be as long as buf, and
// the message must fill buf.
type Fold struct {
	Op   dtype.Op
	Type dtype.Type
	Own  []byte
}

// recvReq is a receive: its pattern and where its bytes land.
type recvReq struct {
	src, tag int
	buf      []byte
	fold     Fold
	folds    bool // combine under fold where a plain receive copies
}

// land puts the message's bytes [off, off+len(src)) into the receive buffer:
// a copy, or under a fold their combine with the buffer or with Own.
func (rq *recvReq) land(off int, src []byte) {
	dst := rq.buf[off : off+len(src)]
	switch f := &rq.fold; {
	case !rq.folds:
		copy(dst, src)
	case f.Own != nil:
		dtype.ReduceInto(f.Op, f.Type, dst, f.Own[off:off+len(src)], src)
	default:
		dtype.Reduce(f.Op, f.Type, dst, src)
	}
}

// whole rounds a landing boundary down to a whole element of the fold; a copy
// lands at any byte.
func (rq *recvReq) whole(off int) int {
	if !rq.folds {
		return off
	}
	return off - off%rq.fold.Type.Size()
}

// Rank is one task's endpoint.
type Rank struct {
	w          *World
	rank, node int
	posted     msgQueue // receives waiting for a message
	unexpected msgQueue // messages that arrived before their receive
	status     Status   // the receive consumed last, for Recv to return
}

// op is one blocking operation of a task on the layer, a send or a receive,
// from its call to its continuation: where in its protocol it is, and what it
// needs to take the next step. It comes from the world's list and goes back as
// the continuation runs. It resumes as itself, each step ending in the sleep or
// the wait the next one takes, so an operation binds nothing.
type op struct {
	bufpool.Link[op]
	r    *Rank
	t    *sim.Task
	step opStep
	k    sim.K
	msg  *message // the transmission, once the operation has one

	// A send: its target and payload.
	to   *Rank
	tag  int
	data []byte

	// A receive: its pattern and where its bytes land.
	rq recvReq

	// The shared-memory pipe: the bytes through it so far, those landed (the
	// sender's, which lands whole elements of a fold), and the slot in turn.
	off, landed, slot int
}

// opStep is the step an operation takes at its next resume.
type opStep uint8

const (
	sendCharged    opStep = iota // the call overhead has passed
	sendStaged                   // and the per-byte staging of a deeper stack
	shmEagerCopied               // the copy into the bounce buffer
	pipeInCopied                 // a chunk's copy into the pipe
	pipeIn                       // the top of the sender's chunk loop
	netEagerCopied               // the staging copy into the comm subsystem
	netEagerSent                 // the send overhead
	netRTS                       // the RTS's send overhead
	netCTS                       // the CTS has arrived
	netData                      // the data's send overhead
	recvCharged                  // the call overhead has passed
	recvScanned                  // the scan of the unexpected messages
	recvPosted                   // the posted receive has matched
	recvCopied                   // an eager message's copy-out
	pipeOutCopied                // a chunk's copy-out
	pipeOut                      // the top of the receiver's chunk loop
	recvCTS                      // the CTS's send overhead
	leave                        // the last wait of a rendezvous side
)

// start draws the record of an operation of r on t that resumes k at the end,
// and charges the per-call software cost before its first step.
func (r *Rank) start(t *sim.Task, step opStep, k sim.K) *op {
	o := r.w.ops.Get()
	o.r, o.t, o.step, o.k = r, t, step, k
	r.callOverhead(t, o)
	return o
}

// callOverhead charges the per-call software cost, then resumes k.
func (r *Rank) callOverhead(t *sim.Task, k sim.K) {
	t.SleepK(r.w.m.Cfg.MPIOverhead+r.w.proto.ExtraOverhead, k)
}

// sleep and wait end a step: the operation resumes at the next after d of its
// task's time, or once ev has triggered.
func (o *op) sleep(next opStep, d sim.Time) {
	o.step = next
	o.t.SleepK(d, o)
}

func (o *op) wait(next opStep, ev *sim.Event) {
	o.step = next
	ev.WaitK(o.t, o)
}

// finish ends the operation: its record goes back, and its continuation runs.
func (o *op) finish() {
	k := o.k
	o.r.w.ops.Put(o)
	k.Resume()
}

// leave is the operation's last touch of its message, and its end.
func (o *op) leave() {
	o.msg.leave()
	o.finish()
}

// Send is SendT from a process body.
func (r *Rank) Send(p *sim.Proc, dst, tag int, data []byte) {
	r.SendT(&p.Task, dst, tag, data, p.Resume())
	p.Park()
}

// SendT transmits data to rank dst with the given tag and resumes k once the
// send buffer is reusable (Eager: after local staging; Rendezvous: after the
// matched transfer is injected). Self-sends of messages above the
// shared-memory Eager limit require a concurrent receiver (use SendrecvT).
func (r *Rank) SendT(t *sim.Task, dst, tag int, data []byte, k sim.K) {
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: Send to rank %d of %d", dst, len(r.w.ranks)))
	}
	o := r.start(t, sendCharged, k)
	o.to, o.tag, o.data = &r.w.ranks[dst], tag, data
}

// Resume takes the operation's next step.
func (o *op) Resume() {
	r, m, msg := o.r, o.r.w.m, o.msg
	switch o.step {
	case sendCharged:
		if pb := r.w.proto.ExtraPerByte; pb > 0 {
			o.sleep(sendStaged, sim.Time(len(o.data))*pb)
			return
		}
		o.send()
	case sendStaged:
		o.send()
	case shmEagerCopied:
		m.Env.AfterK(m.Cfg.FlagLatency, msg)
		o.finish()
	case pipeInCopied:
		n := min(m.Cfg.ShmPktSize, len(o.data)-o.off)
		// A fold lands whole elements only: one the chunk boundary splits
		// lands with the next chunk, read from data, which cannot change
		// while its send runs.
		end := msg.rq.whole(o.off + n)
		msg.rq.land(o.landed, o.data[o.landed:end])
		o.landed = end
		m.Stats.AddCopy(n)
		o.pass(n, n)
		fallthrough
	case pipeIn:
		switch pp := &msg.pipe; {
		case o.off == len(o.data):
			o.leave()
		case pp.slots[o.slot] != 0:
			o.step = pipeIn
			pp.cond.WaitOnT(o.t, nil, -1, o)
		default:
			o.step = pipeInCopied
			m.ChargeCopyK(o.t, pp.node, min(m.Cfg.ShmPktSize, len(o.data)-o.off), o)
		}
	case netEagerCopied:
		m.Stats.AddPlainCopy(len(o.data))
		o.sleep(netEagerSent, m.Cfg.SendOverhead)
	case netEagerSent:
		_, arrival := m.NetInjectTo(r.node, o.to.node, len(o.data)+headerBytes)
		m.Env.AtK(arrival, msg)
		o.finish()
	case netRTS:
		_, arrival := m.NetInjectTo(r.node, o.to.node, headerBytes)
		m.Env.AtK(arrival, msg)
		o.wait(netCTS, &msg.cts)
	case netCTS:
		o.sleep(netData, m.Cfg.SendOverhead)
	case netData:
		// The adapter reads the user buffer during injection and DMAs it
		// straight into the receive buffer, posted before the CTS. The bytes
		// land now, so the send buffer is truly reusable once the send
		// completes (MPI semantics); the receiver is parked on dataDone until
		// one wire latency later and cannot tell them from bytes that arrived
		// then.
		msg.rq.land(0, o.data)
		injectEnd, dataArrival := m.NetInjectTo(r.node, o.to.node, msg.size)
		m.Env.AtK(dataArrival, (*msgLanded)(msg))
		// The send buffer is reusable once the adapter has read it.
		if d := injectEnd - m.Env.Now(); d > 0 {
			o.sleep(leave, d)
			return
		}
		o.leave()
	case recvCharged:
		o.sleep(recvScanned, m.Cfg.TagMatchBase+m.Cfg.TagMatchScan*sim.Time(r.unexpected.n))
	case recvScanned:
		if msg = r.unexpected.take(func(x *message) bool { return matches(o.rq.src, o.rq.tag, x.src, x.tag) }); msg == nil {
			o.msg = r.w.msgs.Get()
			o.msg.rq = o.rq
			o.msg.done.Init(m.Env)
			r.posted.push(o.msg)
			o.wait(recvPosted, &o.msg.done)
			return
		}
		o.consume(msg)
	case recvPosted:
		matched := msg.matched
		r.w.msgs.Put(msg)
		o.consume(matched)
	case recvCopied:
		msg.rq.land(0, msg.data)
		if msg.kind == eagerShm {
			m.Stats.AddCopy(msg.size)
		} else {
			m.Stats.AddPlainCopy(msg.size)
		}
		m.Buffers.Put(msg.data) // bounce buffer or staging copy fully copied out
		o.leave()
	case pipeOutCopied:
		n := msg.pipe.slots[o.slot]
		m.Stats.AddCopy(n)
		o.pass(0, n)
		fallthrough
	case pipeOut:
		// The copy-out is a charge: its bytes are already there.
		switch pp := &msg.pipe; {
		case o.off == msg.size:
			o.leave()
		case pp.slots[o.slot] == 0:
			o.step = pipeOut
			pp.cond.WaitOnT(o.t, nil, -1, o)
		default:
			o.step = pipeOutCopied
			m.ChargeCopyK(o.t, pp.node, pp.slots[o.slot], o)
		}
	case recvCTS:
		_, arrival := m.NetInjectTo(r.node, r.w.ranks[msg.src].node, headerBytes)
		m.Env.AtK(arrival, (*msgCTS)(msg))
		o.wait(leave, &msg.dataDone)
	case leave:
		o.leave()
	}
}

// send starts the transmission by the protocol its size and target take.
func (o *op) send() {
	r, m, n := o.r, o.r.w.m, len(o.data)
	switch {
	case o.to.node == r.node && n <= m.Cfg.ShmPktSize:
		m.Stats.AddSend(n, true, true)
		o.msg = r.newMessage(eagerShm, o.to, o.tag, n)
		o.msg.data = m.Buffers.Get(n) // released by the receiver after copy-out
		o.step = shmEagerCopied
		m.MemcpyT(o.t, r.node, o.msg.data, o.data, o) // the copy into the shared bounce buffer
	case o.to.node == r.node:
		m.Stats.AddSend(n, false, true)
		o.msg = r.newMessage(rndvShm, o.to, o.tag, n)
		o.msg.senderGo.Init(m.Env)
		o.msg.pipe = shmPipe{node: r.node}
		o.msg.pipe.cond.Init(m.Env)
		m.Env.AfterK(m.Cfg.FlagLatency, o.msg)
		o.wait(pipeIn, &o.msg.senderGo)
	case n <= r.w.proto.EagerLimit(len(r.w.ranks)):
		m.Stats.AddSend(n, true, false)
		o.msg = r.newMessage(eagerNet, o.to, o.tag, n)
		o.msg.data = m.Buffers.Get(n) // released by the receiver after copy-out
		copy(o.msg.data, o.data)
		o.step = netEagerCopied
		m.ChargeCopyK(o.t, r.node, n, o) // the staging copy into the comm subsystem
	default:
		m.Stats.AddSend(n, false, false)
		o.msg = r.newMessage(rndvNet, o.to, o.tag, n)
		o.msg.cts.Init(m.Env)
		o.msg.dataDone.Init(m.Env)
		o.sleep(netRTS, m.Cfg.SendOverhead)
	}
}

// arrive routes an arriving message or announcement through tag matching.
// It runs in scheduler context; the matching cost is modeled as a delay.
func (r *Rank) arrive(msg *message) {
	m := r.w.m
	delay := m.Cfg.TagMatchBase + m.Cfg.TagMatchScan*sim.Time(r.posted.n)
	if msg.kind == eagerNet {
		delay += m.Cfg.RecvOverhead
	}
	m.Env.AfterK(delay, (*msgMatch)(msg))
}

// match hands an arrived message to the first posted receive it matches, or
// queues it as unexpected.
func (r *Rank) match(msg *message) {
	accepts := func(post *message) bool { return matches(post.rq.src, post.rq.tag, msg.src, msg.tag) }
	if post := r.posted.take(accepts); post != nil {
		post.matched = msg
		post.done.Trigger()
		return
	}
	m := r.w.m
	m.Stats.Unexpected++
	if msg.kind == eagerNet {
		// Early arrival: the payload is parked in an early-arrival
		// buffer, costing an extra copy (§2.3 buffer management).
		m.Stats.AddPlainCopy(msg.size)
	}
	r.unexpected.push(msg)
}

// Recv is RecvT from a process body; it returns the receive's status.
func (r *Rank) Recv(p *sim.Proc, src, tag int, buf []byte) Status {
	r.RecvT(&p.Task, src, tag, buf, p.Resume())
	p.Park()
	return r.status
}

// RecvT resumes k once a message matching (src, tag) — either may be Any —
// has been received into buf. The matched message must fit in buf.
func (r *Rank) RecvT(t *sim.Task, src, tag int, buf []byte, k sim.K) {
	r.recvT(t, recvReq{src: src, tag: tag, buf: buf}, k)
}

// RecvReduceT is RecvT with the message folded into buf (see Fold): wherever
// RecvT's bytes land, RecvReduceT's combine, so it charges, counts and takes
// the time RecvT does, and needs no buffer of its own. Folds into one buffer
// run in receive order, because no message's bytes move before its receive has
// matched it and started consuming it.
func (r *Rank) RecvReduceT(t *sim.Task, src, tag int, buf []byte, f Fold, k sim.K) {
	if f.Own != nil && len(f.Own) != len(buf) {
		panic(fmt.Sprintf("mpi: fold operand of %d bytes for a %d-byte receive buffer", len(f.Own), len(buf)))
	}
	r.recvT(t, recvReq{src: src, tag: tag, buf: buf, fold: f, folds: true}, k)
}

func (r *Rank) recvT(t *sim.Task, rq recvReq, k sim.K) {
	r.start(t, recvCharged, k).rq = rq
}

// consume finishes a matched message on the receiving task.
func (o *op) consume(msg *message) {
	r, m := o.r, o.r.w.m
	msg.rq = o.rq
	rq := &msg.rq
	if msg.size > len(rq.buf) {
		panic(fmt.Sprintf("mpi: message of %d bytes truncated by %d-byte receive buffer",
			msg.size, len(rq.buf)))
	}
	if rq.folds && msg.size != len(rq.buf) {
		panic(fmt.Sprintf("mpi: folded message of %d bytes does not fill its %d-byte receive buffer",
			msg.size, len(rq.buf)))
	}
	r.status = Status{Source: msg.src, Tag: msg.tag, Bytes: msg.size}
	o.msg = msg
	switch msg.kind {
	case eagerShm, eagerNet:
		o.step = recvCopied
		m.ChargeCopyK(o.t, r.node, msg.size, o)
	case rndvShm:
		msg.senderGo.Trigger()
		o.step = pipeOut
		o.Resume()
	case rndvNet:
		o.sleep(recvCTS, m.Cfg.SendOverhead) // CTS
	}
}

// shmPipe is the double-buffered bounce channel of the intra-node
// rendezvous: the sender copies chunks in, the receiver copies them out,
// with the two slots providing the pipeline. Both copies are charged and
// counted, but the bytes move once: the bounce buffer is read by nobody but
// the copy-out, so the sender's copy lands each chunk in the receive request
// (the message's rq, set by the receiver before senderGo fires), and the
// copy-out is a charge. The receive completes only once the last chunk is
// charged — the buffer is the library's until then — so the receiver cannot
// tell when its bytes arrived. A side that finds its slot not ready waits on
// cond and looks again at every broadcast.
type shmPipe struct {
	node  int
	slots [2]int // fill level; 0 = free
	cond  sim.Cond
}

// pass hands the side's slot in turn to the other side, filled to fill, and
// counts the n bytes the chunk moved.
func (o *op) pass(fill, n int) {
	pp := &o.msg.pipe
	pp.slots[o.slot] = fill
	pp.cond.Broadcast()
	o.off += n
	o.slot ^= 1
}

// SendrecvT performs a simultaneous send and receive, as needed by pairwise
// exchange algorithms, and resumes k once both are done: the send runs on a
// helper task so neither side deadlocks.
func (r *Rank) SendrecvT(t *sim.Task, dst, stag int, sdata []byte, src, rtag int, rbuf []byte, k sim.K) {
	rq := r.w.reqs.Get()
	r.isend(rq, "mpi-sendrecv-", dst, stag, sdata)
	rq.wt, rq.k = t, k
	r.RecvT(t, src, rtag, rbuf, (*reqExchanged)(rq))
}

// Request tracks a nonblocking send. It is the first step of its helper task,
// which runs the send and triggers done once the send buffer is reusable, and
// it comes from the world's list and goes back once waited for.
type Request struct {
	bufpool.Link[Request]
	r        *Rank
	t        *sim.Task // the helper
	dst, tag int
	data     []byte
	done     sim.Event

	// The wait for it: the waiting task and its continuation.
	wt *sim.Task
	k  sim.K
}

// Resume is the helper's first step: the send.
func (rq *Request) Resume() { rq.r.SendT(rq.t, rq.dst, rq.tag, rq.data, (*reqSent)(rq)) }

// The request as the continuations of its send, of a Sendrecv's receive and of
// the wait for it.
type (
	reqSent      Request
	reqExchanged Request
	reqWaited    Request
)

func (s *reqSent) Resume()      { s.done.Trigger() }
func (x *reqExchanged) Resume() { (*Request)(x).WaitT(x.wt, x.k) }
func (w *reqWaited) Resume() {
	k := w.k
	w.r.w.reqs.Put((*Request)(w))
	k.Resume()
}

// WaitT resumes k on t once the send has completed; the request goes back to
// the world's list first.
func (rq *Request) WaitT(t *sim.Task, k sim.K) {
	rq.k = k
	rq.done.WaitK(t, (*reqWaited)(rq))
}

// IsendT starts a nonblocking send and resumes k once the caller has paid the
// call overhead; the transfer proceeds on a helper task (the communication
// subsystem). The data buffer must not be modified until the request completes
// (completion means the buffer is reusable, exactly as for SendT).
func (r *Rank) IsendT(t *sim.Task, dst, tag int, data []byte, k sim.K) *Request {
	rq := r.w.reqs.Get()
	r.isend(rq, "mpi-isend-", dst, tag, data)
	r.callOverhead(t, k)
	return rq
}

// isend starts rq on a helper task named prefix+rank, whose record is reused
// once it has finished (sim.Env.SpawnTaskK).
func (r *Rank) isend(rq *Request, prefix string, dst, tag int, data []byte) {
	rq.r, rq.dst, rq.tag, rq.data = r, dst, tag, data
	rq.done.Init(r.w.m.Env)
	rq.t = r.w.m.Env.SpawnTaskK(prefix, r.rank, rq)
}
