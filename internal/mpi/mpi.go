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
// The records a transmission needs — the message with its events, its
// rendezvous pipe and the receive it lands in, and the request a Sendrecv's
// helper runs — come from free lists of the world's, so a send and its receive
// allocate nothing once the lists have warmed up; the helpers' processes are
// reused by the environment (sim.Env.SpawnHelper). Release hands the lists'
// memory back to the reserve; a world that is dropped without it leaves them
// to the collector.
type World struct {
	m     *machine.Machine
	proto Protocol
	ranks []Rank
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
// for a world whose simulation is over and ended with no process parked in
// it: every message, receive and request is dead, and the caller drops the
// world.
func (w *World) Release() {
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
}

// callOverhead charges the per-call software cost.
func (r *Rank) callOverhead(p *sim.Proc) {
	p.Sleep(r.w.m.Cfg.MPIOverhead + r.w.proto.ExtraOverhead)
}

// Send transmits data to rank dst with the given tag, blocking until the
// send buffer is reusable (Eager: after local staging; Rendezvous: after
// the matched transfer is injected). Self-sends of messages above the
// shared-memory Eager limit require a concurrent receiver (use Sendrecv).
func (r *Rank) Send(p *sim.Proc, dst, tag int, data []byte) {
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: Send to rank %d of %d", dst, len(r.w.ranks)))
	}
	m := r.w.m
	r.callOverhead(p)
	if r.w.proto.ExtraPerByte > 0 {
		p.Sleep(sim.Time(len(data)) * r.w.proto.ExtraPerByte)
	}
	target := &r.w.ranks[dst]
	if target.node == r.node {
		if len(data) <= m.Cfg.ShmPktSize {
			m.Stats.AddSend(len(data), true, true)
			r.sendShmEager(p, target, tag, data)
		} else {
			m.Stats.AddSend(len(data), false, true)
			r.sendShmRndv(p, target, tag, data)
		}
		return
	}
	if len(data) <= r.w.proto.EagerLimit(len(r.w.ranks)) {
		m.Stats.AddSend(len(data), true, false)
		r.sendNetEager(p, target, tag, data)
	} else {
		m.Stats.AddSend(len(data), false, false)
		r.sendNetRndv(p, target, tag, data)
	}
}

func (r *Rank) sendShmEager(p *sim.Proc, target *Rank, tag int, data []byte) {
	m := r.w.m
	owned := m.Buffers.Get(len(data)) // released by consume after copy-out
	m.Memcpy(p, r.node, owned, data)  // copy into the shared bounce buffer
	msg := r.newMessage(eagerShm, target, tag, len(data))
	msg.data = owned
	m.Env.AfterK(m.Cfg.FlagLatency, msg)
}

func (r *Rank) sendShmRndv(p *sim.Proc, target *Rank, tag int, data []byte) {
	m := r.w.m
	msg := r.newMessage(rndvShm, target, tag, len(data))
	msg.senderGo.Init(m.Env)
	msg.pipe = shmPipe{node: r.node}
	msg.pipe.cond.Init(m.Env)
	m.Env.AfterK(m.Cfg.FlagLatency, msg)
	p.Wait(&msg.senderGo)
	msg.sendLoop(p, data)
	msg.leave()
}

func (r *Rank) sendNetEager(p *sim.Proc, target *Rank, tag int, data []byte) {
	m := r.w.m
	owned := m.Buffers.Get(len(data)) // released by consume after copy-out
	copy(owned, data)
	m.ChargeCopy(p, r.node, len(data)) // staging copy into the comm subsystem
	m.Stats.AddPlainCopy(len(data))
	p.Sleep(m.Cfg.SendOverhead)
	_, arrival := m.NetInjectTo(r.node, target.node, len(data)+headerBytes)
	msg := r.newMessage(eagerNet, target, tag, len(data))
	msg.data = owned
	m.Env.AtK(arrival, msg)
}

func (r *Rank) sendNetRndv(p *sim.Proc, target *Rank, tag int, data []byte) {
	m := r.w.m
	msg := r.newMessage(rndvNet, target, tag, len(data))
	msg.cts.Init(m.Env)
	msg.dataDone.Init(m.Env)
	p.Sleep(m.Cfg.SendOverhead) // RTS
	_, arrival := m.NetInjectTo(r.node, target.node, headerBytes)
	m.Env.AtK(arrival, msg)
	p.Wait(&msg.cts)
	p.Sleep(m.Cfg.SendOverhead)
	// The adapter reads the user buffer during injection and DMAs it straight
	// into the receive buffer, posted before the CTS. The bytes land now, so
	// the send buffer is truly reusable once Send returns (MPI semantics); the
	// receiver is parked on dataDone until one wire latency later and cannot
	// tell them from bytes that arrived then.
	msg.rq.land(0, data)
	injectEnd, dataArrival := m.NetInjectTo(r.node, target.node, msg.size)
	m.Env.AtK(dataArrival, (*msgLanded)(msg))
	// The send buffer is reusable once the adapter has read it.
	if d := injectEnd - m.Env.Now(); d > 0 {
		p.Sleep(d)
	}
	msg.leave()
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

// Recv blocks until a message matching (src, tag) — either may be Any —
// has been received into buf, and returns its status. The matched message
// must fit in buf.
func (r *Rank) Recv(p *sim.Proc, src, tag int, buf []byte) Status {
	return r.recv(p, recvReq{src: src, tag: tag, buf: buf})
}

// RecvReduce is Recv with the message folded into buf (see Fold): wherever
// Recv's bytes land, RecvReduce's combine, so it charges, counts and takes the
// time Recv does, and needs no buffer of its own. Folds into one buffer run in
// receive order, because no message's bytes move before its receive has
// matched it and started consuming it.
func (r *Rank) RecvReduce(p *sim.Proc, src, tag int, buf []byte, f Fold) Status {
	if f.Own != nil && len(f.Own) != len(buf) {
		panic(fmt.Sprintf("mpi: fold operand of %d bytes for a %d-byte receive buffer", len(f.Own), len(buf)))
	}
	return r.recv(p, recvReq{src: src, tag: tag, buf: buf, fold: f, folds: true})
}

func (r *Rank) recv(p *sim.Proc, rq recvReq) Status {
	m := r.w.m
	r.callOverhead(p)
	p.Sleep(m.Cfg.TagMatchBase + m.Cfg.TagMatchScan*sim.Time(r.unexpected.n))
	msg := r.unexpected.take(func(x *message) bool { return matches(rq.src, rq.tag, x.src, x.tag) })
	if msg == nil {
		post := r.w.msgs.Get()
		post.rq = rq
		post.done.Init(m.Env)
		r.posted.push(post)
		p.Wait(&post.done)
		msg = post.matched
		r.w.msgs.Put(post)
	}
	msg.rq = rq
	return r.consume(p, msg)
}

// consume finishes a matched message in the receiving process's context.
func (r *Rank) consume(p *sim.Proc, msg *message) Status {
	m := r.w.m
	rq := &msg.rq
	if msg.size > len(rq.buf) {
		panic(fmt.Sprintf("mpi: message of %d bytes truncated by %d-byte receive buffer",
			msg.size, len(rq.buf)))
	}
	if rq.folds && msg.size != len(rq.buf) {
		panic(fmt.Sprintf("mpi: folded message of %d bytes does not fill its %d-byte receive buffer",
			msg.size, len(rq.buf)))
	}
	st := Status{Source: msg.src, Tag: msg.tag, Bytes: msg.size}
	switch msg.kind {
	case eagerShm:
		m.ChargeCopy(p, r.node, msg.size)
		rq.land(0, msg.data)
		m.Stats.AddCopy(msg.size)
		m.Buffers.Put(msg.data) // bounce buffer fully copied out
	case eagerNet:
		m.ChargeCopy(p, r.node, msg.size)
		rq.land(0, msg.data)
		m.Buffers.Put(msg.data) // staging copy fully copied out
		m.Stats.AddPlainCopy(msg.size)
	case rndvShm:
		msg.senderGo.Trigger()
		msg.recvLoop(p)
	case rndvNet:
		p.Sleep(m.Cfg.SendOverhead) // CTS
		_, arrival := m.NetInjectTo(r.node, r.w.ranks[msg.src].node, headerBytes)
		m.Env.AtK(arrival, (*msgCTS)(msg))
		p.Wait(&msg.dataDone)
	}
	msg.leave()
	return st
}

// Sendrecv performs a simultaneous send and receive, as needed by pairwise
// exchange algorithms; the send runs in a helper process so neither side
// deadlocks.
func (r *Rank) Sendrecv(p *sim.Proc, dst, stag int, sdata []byte,
	src, rtag int, rbuf []byte) Status {
	rq := r.w.reqs.Get()
	r.isend(rq, "mpi-sendrecv-", dst, stag, sdata)
	st := r.Recv(p, src, rtag, rbuf)
	p.Wait(&rq.done)
	r.w.reqs.Put(rq)
	return st
}

// shmPipe is the double-buffered bounce channel of the intra-node
// rendezvous: the sender copies chunks in, the receiver copies them out,
// with the two slots providing the pipeline. Both copies are charged and
// counted, but the bytes move once: the bounce buffer is read by nobody but
// the copy-out, so the sender's copy lands each chunk in the receive request
// (the message's rq, set by the receiver before senderGo fires), and the
// copy-out is a charge. The receiver is parked in Recv until the last chunk is
// charged — the buffer is the library's until the receive completes — so it
// cannot tell when its bytes arrived.
type shmPipe struct {
	node  int
	slots [2]int // fill level; 0 = free
	cond  sim.Cond
}

func (msg *message) sendLoop(p *sim.Proc, data []byte) {
	m, pp := msg.dst.w.m, &msg.pipe
	slot := 0
	landed := 0
	for off := 0; off < len(data); {
		n := min(m.Cfg.ShmPktSize, len(data)-off)
		pp.cond.WaitUntil(p, func() bool { return pp.slots[slot] == 0 })
		m.ChargeCopy(p, pp.node, n)
		// A fold lands whole elements only: one the chunk boundary splits
		// lands with the next chunk, read from data, which cannot change
		// while its Send runs.
		end := msg.rq.whole(off + n)
		msg.rq.land(landed, data[landed:end])
		landed = end
		m.Stats.AddCopy(n)
		pp.slots[slot] = n
		pp.cond.Broadcast()
		off += n
		slot ^= 1
	}
}

func (msg *message) recvLoop(p *sim.Proc) {
	m, pp := msg.dst.w.m, &msg.pipe
	slot := 0
	for off := 0; off < msg.size; {
		pp.cond.WaitUntil(p, func() bool { return pp.slots[slot] != 0 })
		n := pp.slots[slot]
		m.ChargeCopy(p, pp.node, n) // the copy-out: its bytes are already there
		m.Stats.AddCopy(n)
		pp.slots[slot] = 0
		pp.cond.Broadcast()
		off += n
		slot ^= 1
	}
}

// Request tracks a nonblocking send, whose helper process runs the request
// itself as its body (reqBody): the send, and the event it triggers once Send
// has returned. Wait blocks until it completes. An Isend's record is the
// caller's, valid after Wait and the collector's once dropped; a Sendrecv's
// comes from the world's list and goes back when the exchange returns.
type Request struct {
	bufpool.Link[Request]
	r        *Rank
	dst, tag int
	data     []byte
	done     sim.Event
}

// reqBody is a request as the body of its helper.
type reqBody Request

func (b *reqBody) Run(p *sim.Proc) {
	b.r.Send(p, b.dst, b.tag, b.data)
	b.done.Trigger()
}

// Wait blocks until the operation completes.
func (rq *Request) Wait(p *sim.Proc) { p.Wait(&rq.done) }

// Isend starts a nonblocking send. The data buffer must not be modified
// until the request completes (completion means the buffer is reusable,
// exactly as for the blocking Send).
func (r *Rank) Isend(p *sim.Proc, dst, tag int, data []byte) *Request {
	rq := new(Request)
	r.isend(rq, "mpi-isend-", dst, tag, data)
	// The caller pays the call overhead; the transfer proceeds in the
	// helper (the communication subsystem).
	r.callOverhead(p)
	return rq
}

// isend starts rq and spawns its helper, named prefix+rank; the helper's
// process is reused once it has finished (sim.Env.SpawnHelper).
func (r *Rank) isend(rq *Request, prefix string, dst, tag int, data []byte) {
	rq.r, rq.dst, rq.tag, rq.data = r, dst, tag, data
	rq.done.Init(r.w.m.Env)
	r.w.m.Env.SpawnHelper(prefix, r.rank, (*reqBody)(rq))
}
