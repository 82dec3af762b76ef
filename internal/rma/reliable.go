package rma

import (
	"slices"

	"srmcoll/internal/check"
	"srmcoll/internal/fault"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// This file is the wire of a remote put: one frame per put, from the
// injection of its first transmission until the last callback scheduled for it
// has run. Three wires share it. Without a fault plan a put is one
// transmission that arrives and lands. Under a plan the injector may drop,
// duplicate or delay each transmission, and the protocols above feel it:
// dropped puts are lost forever and duplicated puts bump target counters
// twice. In reliable-delivery mode the domain hides the plan from them:
//
//   - every put carries a sequence number of its directed (origin, target)
//     channel;
//   - the target adapter acknowledges each data packet on arrival (a
//     zero-byte message back over the wire) and suppresses duplicates by
//     sequence number, so retransmitted data is delivered exactly once;
//   - the origin retransmits on ack timeout, doubling the timeout per
//     attempt up to a bounded backoff cap, until the ack lands.
//
// Counter semantics are the same on all three: origin fires when the first
// transmission's injection completes, target when the payload lands (once
// under reliable delivery, once per copy the wire delivers without it), compl
// when the origin receives the acknowledgement (the first one).
//
// Life of a frame. putRemote takes one from the domain's idle list (or carves
// one, binding its continuations then), fills it and calls send. Every
// callback send and its successors schedule — the origin counter's firing, a
// transmission's arrival, its landing (scheduled, or parked in the pending list
// of a target with interrupts off), the acknowledgement's arrival, the ack
// timeout — holds one reference, given up as the callback's last act, and
// nothing else points at the frame; with the last reference gone the frame
// returns the payload snapshot if it still has it, forgets the buffers and
// counters of its put and is idle again. Under reliable delivery that is
// usually the timeout of the last transmission, firing long after the ack and
// finding nothing to do, so a run holds as many frames as it has puts younger
// than an ack timeout, and the snapshot goes back earlier, at the landing, the
// only read the channel's window lets through. A dead target refuses arrivals
// (the reference is given up on the spot), MarkDead tells the frame of every
// landing it discards from the pending list, and a timeout that finds the
// target dead stops retransmitting: in each case the frame drains like any
// other and the snapshot goes back with it. A put on the clean wire has no
// snapshot to return: its bytes moved at issue (wireDirect, rma.go).
//
// The schedule — which callback is queued when, the injector's draws, the
// adapter reservations — is the one the three closure nests this file replaced
// produced, call for call.

// channel is one directed put channel under reliable delivery, reached from
// its origin's endpoint: the sequence number of the origin's next put and, for
// the target's adapter, which numbers have been delivered — all those below
// low, and the few above it that overtook a delayed or retransmitted one. The
// window is as long as the wire is out of order, not as the run.
type channel struct {
	peer  int   // the target's rank
	next  int   // sequence number of the origin's next put
	low   int   // every number below it has been delivered
	ahead []int // delivered numbers above low, ascending
	link  *channel
}

// channel returns the record of the channel from ep to peer. A rank puts to
// the few ranks its trees and exchanges pair it with, so the list is short.
func (ep *Endpoint) channel(peer int) *channel {
	for c := ep.chans; c != nil; c = c.link {
		if c.peer == peer {
			return c
		}
	}
	c := ep.dom.chanMem.New()
	c.peer, c.link = peer, ep.chans
	ep.chans = c
	return c
}

// admit reports whether seq reaches the target for the first time, and records
// that it has.
func (c *channel) admit(seq int) bool {
	if seq < c.low {
		return false
	}
	if seq > c.low {
		i, found := slices.BinarySearch(c.ahead, seq)
		if !found {
			c.ahead = slices.Insert(c.ahead, i, seq)
		}
		return !found
	}
	// The prefix grows by seq and by what had overtaken it, up to the next hole.
	c.low++
	k := 0
	for k < len(c.ahead) && c.ahead[k] == c.low {
		c.low++
		k++
	}
	c.ahead = c.ahead[:copy(c.ahead, c.ahead[k:])]
	return true
}

// EnableReliable switches the domain to reliable-delivery mode. ackTimeout
// is the first-attempt retransmit timeout and backoffCap bounds the
// exponential backoff; zero values derive defaults from the machine's
// network parameters (several round trips, so clean runs never retransmit
// spuriously).
//
// EnableReliable is idempotent: calling it again mid-run adjusts the
// timeouts and nothing else — the channels keep their sequence numbers and
// windows, so puts already in flight keep their numbers and stale retransmits
// are still recognized as duplicates.
func (d *Domain) EnableReliable(ackTimeout, backoffCap sim.Time) {
	cfg := d.m.Cfg
	if ackTimeout <= 0 {
		// A generous RTT bound: two wire latencies plus the worst-case
		// delivery cost at the target and packet overheads, times four.
		// On a hierarchical topology the bound uses the slowest tier so
		// clean cross-tier traffic never retransmits spuriously.
		maxLat, maxPkt := cfg.MaxNetLatency(), cfg.NetPktOverhead
		for _, t := range cfg.Tiers {
			if t.PktOverhead > maxPkt {
				maxPkt = t.PktOverhead
			}
		}
		ackTimeout = 4 * (2*maxLat + cfg.InterruptCost + cfg.RecvOverhead +
			cfg.StarvePenalty + 2*maxPkt)
	}
	if backoffCap <= 0 {
		backoffCap = 16 * ackTimeout
	}
	d.reliable = true
	d.ackTimeout = ackTimeout
	d.backoffCap = backoffCap
}

// Reliable reports whether the domain is in reliable-delivery mode.
func (d *Domain) Reliable() bool { return d.reliable }

// delivery is the frame of one remote put (see the top of this file).
type delivery struct {
	src, target        *Endpoint
	dst, snap          []byte // snap is nil for a zero-byte put, on the clean wire, and once it is back in the pool
	origin, tgt, compl *Counter
	n                  int      // payload bytes of a transmission (len(snap) while the frame has it)
	g, par             int      // trace group and issuing span, -1 untraced
	issued             sim.Time // when the put was issued (wireChecked only)
	refs               int      // callbacks scheduled or parked that have yet to run

	// Reliable delivery only; ch is nil for a put sent without it.
	ch    *channel
	seq   int  // the put's number on ch
	try   int  // retransmissions so far
	acked bool // the origin has the acknowledgement

	// Continuations, bound once per frame.
	arriveFn, landFn, originFn, ackFn, timeoutFn func()

	next *delivery // Domain.idle
}

// frame returns an idle frame, or a new one.
func (d *Domain) frame() *delivery {
	fr := d.idle
	if fr == nil {
		fr = d.frameMem.New()
		fr.arriveFn, fr.landFn, fr.originFn, fr.ackFn, fr.timeoutFn = fr.arrive, fr.land, fr.originFired, fr.ack, fr.timeout
		d.tally.Frames++
		return fr
	}
	d.idle, fr.next = fr.next, nil
	return fr
}

// unref gives up one reference. The last one makes the frame idle: it pins no
// buffer or counter of a finished operation, and the snapshot no transmission
// got to land (all dropped, refused or discarded) goes back to the pool.
func (fr *delivery) unref() {
	if fr.refs--; fr.refs > 0 {
		return
	}
	d := fr.src.dom
	fr.returnSnap()
	fr.dst, fr.origin, fr.tgt, fr.compl, fr.ch = nil, nil, nil, nil, nil
	fr.try, fr.acked = 0, false
	fr.next, d.idle = d.idle, fr
}

// returnSnap recycles the payload snapshot: nothing reads it from here on.
func (fr *delivery) returnSnap() {
	if fr.snap != nil {
		d := fr.src.dom
		d.m.Buffers.Put(fr.snap)
		d.tally.Snapshots--
		fr.snap = nil
	}
}

// send puts one transmission of the put on the wire — the first, or under
// reliable delivery a retransmission — and, reliable, arms its ack timeout.
func (fr *delivery) send() {
	d := fr.src.dom
	m := d.m
	tr := m.Env.Trace
	src, target := fr.src, fr.target
	injectEnd, arrival := m.NetInjectTo(src.Node, target.Node, fr.n)
	if tr != nil {
		tr.Add(fr.g, fr.par, trace.ClassPutInject, "put:inject", int64(fr.n), m.Env.Now(), injectEnd)
	}
	if fr.try == 0 && fr.origin != nil {
		fr.refs++
		m.Env.At(injectEnd, fr.originFn)
	}
	var v fault.Verdict
	if m.Faults != nil {
		v = m.Faults.Put(src.Rank, target.Rank)
	}
	d.tally.Sent++
	if v.Drop {
		// Lost in the switch; without reliable delivery nobody notices.
		if tr != nil {
			tr.Add(fr.g, fr.par, trace.ClassPutWire, "put:drop", int64(fr.n), injectEnd, arrival)
		}
		m.Stats.Drops++
	} else {
		if tr != nil {
			tr.Add(fr.g, fr.par, trace.ClassPutWire, "put:wire", int64(fr.n), injectEnd, arrival+v.Delay)
		}
		fr.refs++
		d.tally.Unresolved++
		m.Env.At(arrival+v.Delay, fr.arriveFn)
		if v.Dup {
			// The duplicate takes one extra wire latency. Without reliable
			// delivery it lands in full: no dedup, so counters double-fire.
			wireLat := m.Cfg.NetLatencyOf(src.Node, target.Node)
			if tr != nil {
				tr.Add(fr.g, fr.par, trace.ClassPutWire, "put:dup", int64(fr.n), injectEnd, arrival+v.Delay+wireLat)
			}
			fr.refs++
			d.tally.Sent++
			d.tally.Unresolved++
			m.Env.At(arrival+v.Delay+wireLat, fr.arriveFn)
		}
	}
	if fr.ch == nil {
		return
	}
	// Retransmit on ack timeout, doubling up to the backoff cap — but
	// never before this attempt could possibly have been acked: the
	// data must serialize onto the wire and arrive (arrival already
	// includes adapter queueing), be delivered at the target, and the
	// ack must cross back. A fixed timeout below that bound — easy to
	// configure when one plan covers both 64-byte and megabyte puts —
	// would retransmit every large put unconditionally, and since each
	// retransmit reserves the adapter for the full serialization time
	// the storm compounds until the run live-locks.
	floor := (arrival - m.Env.Now()) + m.Cfg.InterruptCost + m.Cfg.RecvOverhead +
		m.Cfg.StarvePenalty + m.Cfg.NetLatencyOf(target.Node, src.Node) + m.Cfg.NetPktOverhead
	timeout := d.ackTimeout
	for i := 0; i < fr.try && timeout < d.backoffCap; i++ {
		timeout *= 2
	}
	if timeout > d.backoffCap {
		timeout = d.backoffCap
	}
	if timeout < floor {
		timeout = floor
	}
	fr.refs++
	m.Env.After(timeout, fr.timeoutFn)
}

// originFired runs when the first transmission's injection completes: the
// origin buffer is reusable.
func (fr *delivery) originFired() {
	fr.origin.Incr(1)
	fr.unref()
}

// arrive runs when one transmission reaches the target adapter. Without
// reliable delivery whatever the wire delivers lands. With it the payload is
// delivered exactly once and every copy acknowledged: the adapter acks from
// firmware on arrival (it does not wait for the interrupt-level delivery), so
// retransmits stop as soon as the data is safely at the target node.
func (fr *delivery) arrive() {
	d := fr.src.dom
	m := d.m
	if fr.ch == nil {
		// The landing takes over the arrival's reference.
		if !fr.target.deliver(fr, fr.landFn) {
			d.tally.Unresolved--
			fr.unref()
		}
		return
	}
	if !fr.ch.admit(fr.seq) {
		m.Stats.DupsSuppressed++
		d.tally.Unresolved--
	} else if fr.target.deliver(fr, fr.landFn) {
		fr.refs++
	} else {
		d.tally.Unresolved--
	}
	src, target := fr.src, fr.target
	_, ackArrival := m.NetInjectTo(target.Node, src.Node, 0)
	tr := m.Env.Trace
	if m.Faults != nil && m.Faults.AckDrop(target.Rank, src.Rank) {
		if tr != nil {
			tr.Add(fr.g, fr.par, trace.ClassPutAck, "put:ack:drop", 0, m.Env.Now(), ackArrival)
		}
		fr.unref() // ack lost; the origin will time out and retransmit
		return
	}
	if tr != nil {
		tr.Add(fr.g, fr.par, trace.ClassPutAck, "put:ack", 0, m.Env.Now(), ackArrival)
	}
	m.Env.At(ackArrival, fr.ackFn) // on the arrival's reference
}

// land moves the payload into the target's memory — unless the clean wire
// moved it at issue — and fires the target counter. Without reliable delivery,
// completion is acknowledged back to the origin over the wire from here.
func (fr *delivery) land() {
	d := fr.src.dom
	m := d.m
	d.tally.Unresolved--
	d.tally.Landed++
	if d.wire == wireChecked {
		fr.checkWindow()
	}
	copy(fr.dst, fr.snap)
	if fr.ch != nil {
		// Exactly-once delivery means this copy is the only read of the
		// snapshot's contents: the window suppresses every other arrival, and
		// a retransmission needs only the length. The frame lives on until its
		// timeouts have fired; the snapshot need not.
		fr.returnSnap()
	}
	if fr.tgt != nil {
		fr.tgt.Incr(1)
	}
	if fr.ch == nil && fr.compl != nil {
		ackLat := m.Cfg.NetLatencyOf(fr.target.Node, fr.src.Node)
		if tr := m.Env.Trace; tr != nil {
			tr.Add(fr.g, fr.par, trace.ClassPutAck, "put:ack", 0, m.Env.Now(), m.Env.Now()+ackLat)
		}
		fr.refs++
		m.Env.After(ackLat, fr.ackFn)
	}
	fr.unref()
}

// checkWindow holds a checked put's window to the poison putRemote filled it
// with: nothing may have written it while the put was in flight.
func (fr *delivery) checkWindow() {
	for i, b := range fr.dst {
		if b != windowPoison {
			panic(&check.WindowError{Origin: fr.src.Rank, Target: fr.target.Rank, Bytes: fr.n, First: i,
				Issued: float64(fr.issued), Landed: float64(fr.src.dom.m.Env.Now())})
		}
	}
}

// discard stands in for a landing that MarkDead threw away with the pending
// list of its target.
func (fr *delivery) discard() {
	d := fr.src.dom
	d.tally.Unresolved--
	d.tally.Discarded++
	fr.unref()
}

// ack runs when an acknowledgement reaches the origin. Under reliable delivery
// only the first one of a put counts; without it each landing sends its own.
func (fr *delivery) ack() {
	if fr.ch == nil || !fr.acked {
		fr.acked = true
		if fr.compl != nil {
			fr.compl.Incr(1)
		}
	}
	fr.unref()
}

// timeout runs one ack timeout after a transmission under reliable delivery.
// Usually the ack came long before. If not, the put is retransmitted — unless
// its target was declared failed meanwhile: without that cutoff the loop would
// reschedule forever (nobody is left to make the ack path win against injected
// ack drops at probability 1).
func (fr *delivery) timeout() {
	if !fr.acked && !fr.target.dead {
		m := fr.src.dom.m
		m.Stats.AckTimeouts++
		m.Stats.Retries++
		fr.try++
		fr.send()
	}
	fr.unref()
}

// Tally is the domain's ledger of the put path, kept beside the run's
// statistics so that tests can hold the two to each other: every transmission
// put on the wire ends in exactly one of the fates the statistics count
// (dropped, suppressed as a duplicate, refused by a dead target), or landed, or
// was discarded — its landing thrown away with the pending list of a target
// marked dead, or with the drain of a target killed or interrupted while
// servicing it — or is still under way.
type Tally struct {
	Puts       int // remote puts: first transmissions
	Sent       int // transmissions: first ones, retransmissions, injected duplicates
	Landed     int // transmissions that reached the target's memory
	Discarded  int // landings that will never run
	Unresolved int // on the wire, or at the target and waiting to land (scheduled, or parked in a pending list)
	Snapshots  int // payload snapshots taken from the pool and not yet returned
	Frames     int // put frames carved so far
	Idle       int // of those, on the idle list (filled in by Domain.Tally)
}

// Tally reads the ledger, for tests.
func (d *Domain) Tally() Tally {
	t := d.tally
	for fr := d.idle; fr != nil; fr = fr.next {
		t.Idle++
	}
	return t
}
