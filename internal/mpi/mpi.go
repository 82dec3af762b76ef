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
type World struct {
	m     *machine.Machine
	proto Protocol
	ranks []*Rank
}

// NewWorld builds the world with the given protocol policy.
func NewWorld(m *machine.Machine, proto Protocol) *World {
	w := &World{m: m, proto: proto, ranks: make([]*Rank, m.P())}
	for r := range w.ranks {
		w.ranks[r] = &Rank{w: w, rank: r, node: m.NodeOf(r)}
	}
	return w
}

// Machine returns the underlying machine.
func (w *World) Machine() *machine.Machine { return w.m }

// Rank returns endpoint r.
func (w *World) Rank(r int) *Rank { return w.ranks[r] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

type msgKind int

const (
	eagerShm msgKind = iota
	eagerNet
	rndvShm
	rndvNet
)

// message is an arrived (or announced) transmission at a receiver.
type message struct {
	kind msgKind
	src  int
	tag  int
	size int
	data []byte   // owned payload for eager kinds
	req  *recvReq // the receive that matched it, set before consume

	// Rendezvous state.
	senderGo *sim.Event // shm: wakes the sender to start the pipe
	pipe     *shmPipe   // shm: shared double-buffered channel
	cts      *sim.Event // net: fires at the sender when CTS arrives
	dataDone *sim.Event // net: fires at the receiver when data landed
	payload  []byte     // net: sender's buffer, read at injection
	origin   *Rank      // net: sender endpoint (for CTS routing)
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

// recvReq is a posted receive.
type recvReq struct {
	src, tag int
	buf      []byte
	fold     Fold
	folds    bool // combine under fold where a plain receive copies
	done     *sim.Event
	msg      *message // attached when matched
}

func (rq *recvReq) matches(src, tag int) bool {
	return (rq.src == Any || rq.src == src) && (rq.tag == Any || rq.tag == tag)
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
	posted     []*recvReq
	unexpected []*message
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
	target := r.w.ranks[dst]
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
	msg := &message{kind: eagerShm, src: r.rank, tag: tag, size: len(data), data: owned}
	m.Env.After(m.Cfg.FlagLatency, func() { target.arrive(msg) })
}

func (r *Rank) sendShmRndv(p *sim.Proc, target *Rank, tag int, data []byte) {
	m := r.w.m
	msg := &message{
		kind:     rndvShm,
		src:      r.rank,
		tag:      tag,
		size:     len(data),
		senderGo: m.Env.NewEvent(),
		pipe:     newShmPipe(m, r.node, m.Cfg.ShmPktSize, len(data)),
	}
	m.Env.After(m.Cfg.FlagLatency, func() { target.arrive(msg) })
	p.Wait(msg.senderGo)
	msg.pipe.sendLoop(p, data)
}

func (r *Rank) sendNetEager(p *sim.Proc, target *Rank, tag int, data []byte) {
	m := r.w.m
	owned := m.Buffers.Get(len(data)) // released by consume after copy-out
	copy(owned, data)
	m.ChargeCopy(p, r.node, len(data)) // staging copy into the comm subsystem
	m.Stats.AddPlainCopy(len(data))
	p.Sleep(m.Cfg.SendOverhead)
	_, arrival := m.NetInjectTo(r.node, target.node, len(data)+headerBytes)
	msg := &message{kind: eagerNet, src: r.rank, tag: tag, size: len(data), data: owned}
	m.Env.At(arrival, func() { target.arrive(msg) })
}

func (r *Rank) sendNetRndv(p *sim.Proc, target *Rank, tag int, data []byte) {
	m := r.w.m
	msg := &message{
		kind:     rndvNet,
		src:      r.rank,
		tag:      tag,
		size:     len(data),
		cts:      m.Env.NewEvent(),
		dataDone: m.Env.NewEvent(),
		payload:  data,
		origin:   r,
	}
	p.Sleep(m.Cfg.SendOverhead) // RTS
	_, arrival := m.NetInjectTo(r.node, target.node, headerBytes)
	m.Env.At(arrival, func() { target.arrive(msg) })
	p.Wait(msg.cts)
	p.Sleep(m.Cfg.SendOverhead)
	// The adapter reads the user buffer during injection and DMAs it straight
	// into the receive buffer, posted before the CTS. The bytes land now, so
	// the send buffer is truly reusable once Send returns (MPI semantics); the
	// receiver is parked on dataDone until one wire latency later and cannot
	// tell them from bytes that arrived then.
	msg.req.land(0, msg.payload)
	injectEnd, dataArrival := m.NetInjectTo(r.node, target.node, msg.size)
	m.Env.At(dataArrival, func() { m.Env.After(m.Cfg.RecvOverhead, msg.dataDone.Trigger) })
	// The send buffer is reusable once the adapter has read it.
	if d := injectEnd - m.Env.Now(); d > 0 {
		p.Sleep(d)
	}
}

// arrive routes an arriving message or announcement through tag matching.
// It runs in scheduler context; the matching cost is modeled as a delay.
func (r *Rank) arrive(msg *message) {
	m := r.w.m
	delay := m.Cfg.TagMatchBase + m.Cfg.TagMatchScan*sim.Time(len(r.posted))
	if msg.kind == eagerNet {
		delay += m.Cfg.RecvOverhead
	}
	m.Env.After(delay, func() {
		for i, rq := range r.posted {
			if rq.matches(msg.src, msg.tag) {
				r.posted = append(r.posted[:i], r.posted[i+1:]...)
				rq.msg = msg
				rq.done.Trigger()
				return
			}
		}
		if msg.kind == eagerNet {
			// Early arrival: the payload is parked in an early-arrival
			// buffer, costing an extra copy (§2.3 buffer management).
			m.Stats.Unexpected++
			m.Stats.AddPlainCopy(msg.size)
		} else {
			m.Stats.Unexpected++
		}
		r.unexpected = append(r.unexpected, msg)
	})
}

// findUnexpected removes and returns the first queued message matching
// (src, tag), or nil.
func (r *Rank) findUnexpected(src, tag int) *message {
	for i, msg := range r.unexpected {
		rq := recvReq{src: src, tag: tag}
		if rq.matches(msg.src, msg.tag) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return msg
		}
	}
	return nil
}

// Recv blocks until a message matching (src, tag) — either may be Any —
// has been received into buf, and returns its status. The matched message
// must fit in buf.
func (r *Rank) Recv(p *sim.Proc, src, tag int, buf []byte) Status {
	return r.recv(p, &recvReq{src: src, tag: tag, buf: buf})
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
	return r.recv(p, &recvReq{src: src, tag: tag, buf: buf, fold: f, folds: true})
}

func (r *Rank) recv(p *sim.Proc, rq *recvReq) Status {
	m := r.w.m
	r.callOverhead(p)
	p.Sleep(m.Cfg.TagMatchBase + m.Cfg.TagMatchScan*sim.Time(len(r.unexpected)))
	msg := r.findUnexpected(rq.src, rq.tag)
	if msg == nil {
		rq.done = m.Env.NewEvent()
		r.posted = append(r.posted, rq)
		p.Wait(rq.done)
		msg = rq.msg
	}
	msg.req = rq
	return r.consume(p, msg)
}

// consume finishes a matched message in the receiving process's context.
func (r *Rank) consume(p *sim.Proc, msg *message) Status {
	m := r.w.m
	rq := msg.req
	if msg.size > len(rq.buf) {
		panic(fmt.Sprintf("mpi: message of %d bytes truncated by %d-byte receive buffer",
			msg.size, len(rq.buf)))
	}
	if rq.folds && msg.size != len(rq.buf) {
		panic(fmt.Sprintf("mpi: folded message of %d bytes does not fill its %d-byte receive buffer",
			msg.size, len(rq.buf)))
	}
	switch msg.kind {
	case eagerShm:
		m.ChargeCopy(p, r.node, msg.size)
		rq.land(0, msg.data)
		m.Stats.AddCopy(msg.size)
		m.Buffers.Put(msg.data) // bounce buffer fully copied out
		msg.data = nil
	case eagerNet:
		m.ChargeCopy(p, r.node, msg.size)
		rq.land(0, msg.data)
		m.Buffers.Put(msg.data) // staging copy fully copied out
		msg.data = nil
		m.Stats.AddPlainCopy(msg.size)
	case rndvShm:
		msg.pipe.req = rq
		msg.senderGo.Trigger()
		msg.pipe.recvLoop(p)
	case rndvNet:
		p.Sleep(m.Cfg.SendOverhead) // CTS
		_, arrival := m.NetInjectTo(r.node, msg.origin.node, headerBytes)
		m.Env.At(arrival, msg.cts.Trigger)
		p.Wait(msg.dataDone)
	}
	return Status{Source: msg.src, Tag: msg.tag, Bytes: msg.size}
}

// Sendrecv performs a simultaneous send and receive, as needed by pairwise
// exchange algorithms; the send runs in a helper process so neither side
// deadlocks.
func (r *Rank) Sendrecv(p *sim.Proc, dst, stag int, sdata []byte,
	src, rtag int, rbuf []byte) Status {
	done := r.w.m.Env.NewEvent()
	r.w.m.Env.SpawnIndexed("mpi-sendrecv-", r.rank, func(sp *sim.Proc) {
		r.Send(sp, dst, stag, sdata)
		done.Trigger()
	})
	st := r.Recv(p, src, rtag, rbuf)
	p.Wait(done)
	return st
}

// shmPipe is the double-buffered bounce channel of the intra-node
// rendezvous: the sender copies chunks in, the receiver copies them out,
// with the two slots providing the pipeline. Both copies are charged and
// counted, but the bytes move once: the bounce buffer is read by nobody but
// the copy-out, so the sender's copy lands each chunk in the receive request
// (req, set by the receiver before senderGo fires), and the copy-out is a
// charge. The receiver is parked in Recv until the last chunk is charged —
// the buffer is the library's until the receive completes — so it cannot
// tell when its bytes arrived.
type shmPipe struct {
	m     *machine.Machine
	node  int
	chunk int
	total int
	req   *recvReq
	slots [2]int // fill level; 0 = free
	cond  *sim.Cond
}

func newShmPipe(m *machine.Machine, node, chunk, total int) *shmPipe {
	return &shmPipe{m: m, node: node, chunk: chunk, total: total, cond: m.Env.NewCond()}
}

func (pp *shmPipe) sendLoop(p *sim.Proc, data []byte) {
	slot := 0
	landed := 0
	for off := 0; off < len(data); {
		n := pp.chunk
		if len(data)-off < n {
			n = len(data) - off
		}
		pp.cond.WaitUntil(p, func() bool { return pp.slots[slot] == 0 })
		pp.m.ChargeCopy(p, pp.node, n)
		// A fold lands whole elements only: one the chunk boundary splits
		// lands with the next chunk, read from data, which cannot change
		// while its Send runs.
		end := pp.req.whole(off + n)
		pp.req.land(landed, data[landed:end])
		landed = end
		pp.m.Stats.AddCopy(n)
		pp.slots[slot] = n
		pp.cond.Broadcast()
		off += n
		slot ^= 1
	}
}

func (pp *shmPipe) recvLoop(p *sim.Proc) {
	slot := 0
	for off := 0; off < pp.total; {
		pp.cond.WaitUntil(p, func() bool { return pp.slots[slot] != 0 })
		n := pp.slots[slot]
		pp.m.ChargeCopy(p, pp.node, n) // the copy-out: its bytes are already there
		pp.m.Stats.AddCopy(n)
		pp.slots[slot] = 0
		pp.cond.Broadcast()
		off += n
		slot ^= 1
	}
}

// Request tracks a nonblocking send. Wait blocks until it completes.
type Request struct{ done *sim.Event }

// Wait blocks until the operation completes.
func (rq *Request) Wait(p *sim.Proc) { p.Wait(rq.done) }

// Isend starts a nonblocking send. The data buffer must not be modified
// until the request completes (completion means the buffer is reusable,
// exactly as for the blocking Send).
func (r *Rank) Isend(p *sim.Proc, dst, tag int, data []byte) *Request {
	rq := &Request{done: r.w.m.Env.NewEvent()}
	r.w.m.Env.SpawnIndexed("mpi-isend-", r.rank, func(sp *sim.Proc) {
		r.Send(sp, dst, tag, data)
		rq.done.Trigger()
	})
	// The caller pays the call overhead; the transfer proceeds in the
	// helper (the communication subsystem).
	r.callOverhead(p)
	return rq
}
