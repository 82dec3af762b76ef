// Package baseline implements the collective operations the paper compares
// against: collectives layered on point-to-point message passing, in two
// flavors — the vendor-style "IBM MPI" (leaner stack, recursive doubling
// where it helps, task-count-scaled Eager limit) and "MPICH" (binomial
// trees for broadcast and reduce, reduce+broadcast allreduce, fan-in/
// fan-out barrier, deeper protocol stack). Both are rank-order algorithms:
// unlike SRM they are not SMP-aware — intra-node edges merely happen to use
// the shared-memory p2p device.
//
// No tree is ever built: on each step a rank computes its own parent and
// children (tree.BinomialRow, O(log P)), as an MPI library's mask loop does.
// Every algorithm exists once, in continuation form on the calling task: a
// Group method XT starts it (group.go), and its steps run on the event loop.
// New returns the group of all ranks.
package baseline

import (
	"fmt"
	"math/bits"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/mpi"
	"srmcoll/internal/ranks"
	"srmcoll/internal/tree"
)

// Flavor selects the modeled MPI implementation.
type Flavor int

const (
	IBM Flavor = iota
	MPICH
)

// String returns the flavor name.
func (f Flavor) String() string {
	if f == IBM {
		return "ibm-mpi"
	}
	return "mpich"
}

// rdAllreduceLimit is the size up to which the IBM flavor uses recursive
// doubling for allreduce before switching to reduce+broadcast.
const rdAllreduceLimit = 32 << 10

// Tags per collective; point-to-point matching keeps operations apart
// because a member runs one collective at a time, in SPMD order.
const (
	tagBarrier = 1000 + iota
	tagBcast
	tagReduce
	tagAllreduce
	tagScan
)

// New builds the collectives of the given flavor on a machine and returns them
// over all ranks, where group index and rank coincide: the world group, which
// Sub carves the others out of.
func New(m *machine.Machine, f Flavor) *Group {
	proto := mpi.IBM()
	if f == MPICH {
		proto = mpi.MPICH()
	}
	w := mpi.NewWorld(m, proto)
	members := make([]int, w.Size())
	for i := range members {
		members[i] = i
	}
	return &Group{w: w, flavor: f, calls: new(bufpool.Frames[call, *call]), members: members, pos: ranks.All(len(members))}
}

// Release hands the point-to-point layer's records and the calls' back to the
// reserve (see mpi.World.Release): only once the simulation ended with no rank
// parked in it, and every group carved from this one is dropped with it.
func (g *Group) Release() {
	g.calls.Release()
	g.w.Release()
}

func (g *Group) machine() *machine.Machine { return g.w.Machine() }

// one is what a barrier sends: eager, so the bytes are staged at once.
var one = []byte{1}

// The operations a step ends in. Each starts with the call as its continuation
// and reports true, for the step to return at once (call.step); the peers are
// group indices.
func (c *call) sendTo(to, tag int, buf []byte) bool {
	c.r.SendT(c.t, c.g.members[to], tag, buf, c)
	return true
}

func (c *call) recvFrom(from, tag int, buf []byte) bool {
	c.r.RecvT(c.t, c.g.members[from], tag, buf, c)
	return true
}

// recvReduce receives with the message folded into buf (mpi.Rank.RecvReduceT).
func (c *call) recvReduce(from, tag int, buf []byte, own []byte) bool {
	c.r.RecvReduceT(c.t, c.g.members[from], tag, buf, mpi.Fold{Op: c.op, Type: c.dt, Own: own}, c)
	return true
}

func (c *call) exchange(to, from, tag int, sbuf, rbuf []byte) bool {
	c.r.SendrecvT(c.t, c.g.members[to], tag, sbuf, c.g.members[from], tag, rbuf, c)
	return true
}

// isend starts a nonblocking send of buf, which awaitSend completes.
func (c *call) isend(to, tag int, buf []byte) bool {
	c.sreq = c.r.IsendT(c.t, c.g.members[to], tag, buf, c)
	return true
}

// awaitSend waits for the nonblocking send in flight, if there is one.
func (c *call) awaitSend() bool {
	rq := c.sreq
	if rq == nil {
		return false
	}
	c.sreq = nil
	rq.WaitT(c.t, c)
	return true
}

// chargeCopy charges and records a protocol-internal copy of n bytes whose
// bytes something else lands.
func (c *call) chargeCopy(n int) bool {
	m := c.g.machine()
	m.Stats.AddPlainCopy(n)
	m.ChargeCopyK(c.t, m.NodeOf(c.rank), n, c)
	return true
}

// localCopy makes, records and charges a protocol-internal buffer copy.
// Nothing but the member's own later steps reads dst, so the bytes move at
// once.
func (c *call) localCopy(dst, src []byte) bool {
	copy(dst, src)
	return c.chargeCopy(len(src))
}

// combine charges one elementwise reduction of the call's send size.
func (c *call) combine() bool {
	m, n := c.g.machine(), len(c.send)
	m.Stats.AddReduce(n / max(1, c.dt.Size()))
	c.t.SleepK(m.CombineTime(n), c)
	return true
}

// valid panics for an operator the element type does not have.
func (c *call) valid() {
	if !dtype.Valid(c.op, c.dt) {
		panic(fmt.Sprintf("baseline: operator %s invalid for %s", c.op, c.dt))
	}
}

// rounds is the number of doubling steps below n: the distances 1, 2, 4, ...
// less than n.
func rounds(n int) int { return bits.Len(uint(n - 1)) }

// The algorithms, as the step s of a member's call: each recomputes where it
// is from s, subtracting the steps of every phase it has passed, and reads
// top to bottom as the blocking code it replaces.

// barrier: both era implementations use a binomial fan-in followed by a
// fan-out over group indices (dissemination-style MPI barriers arrived
// later); the flavors differ only through their point-to-point protocol
// costs.
func (c *call) barrier(s int) bool {
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(len(c.g.members), 0, c.me, row[:0])
	if s < len(kids) {
		return c.recvFrom(kids[s], tagBarrier, c.flag[:])
	}
	if s -= len(kids); parent != -1 {
		switch s {
		case 0:
			return c.sendTo(parent, tagBarrier, one)
		case 1:
			return c.recvFrom(parent, tagBarrier, c.flag[:])
		}
		s -= 2
	}
	if s < len(kids) {
		return c.sendTo(kids[s], tagBarrier, one)
	}
	return c.finish()
}

// bcast broadcasts along a binomial tree over group indices — the MPICH
// algorithm the paper names (§2.1), and what the vendor MPI of the era used as
// well.
func (c *call) bcast(s int) bool {
	n := len(c.g.members)
	if n == 1 {
		return c.finish()
	}
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(n, c.g.index(c.root), c.me, row[:0])
	if parent != -1 {
		if s == 0 {
			return c.recvFrom(parent, tagBcast, c.send)
		}
		s--
	}
	if s < len(kids) {
		return c.sendTo(kids[s], tagBcast, c.send)
	}
	return c.finish()
}

// reduce combines members' send buffers along a binomial tree over group
// indices, leaving the result in recv at root (ignored elsewhere; may be nil).
// Each interior member stages its accumulator and receives every child into it
// — the data movement at every tree level that Figure 2 contrasts with the SRM
// shared-memory reduce. Both are charged as the copies they are, but the bytes
// move once: each child is folded into the accumulator where its message lands
// (mpi.Rank.RecvReduceT), and the staging copy's bytes land with the first
// child's fold, acc = send op child. A non-root accumulator comes from the
// machine's pool and goes back once the member is through with it; a member
// unwound out of the operation keeps it out of the pool for the rest of the
// run, because a transfer matched before the unwind may still land in it. It
// is memory of the pool's blocks all the same: the rewind at the end of the run
// takes it back with everything else, once nothing can land anywhere
// (bufpool.HandBack), and the run is counted as having left it out
// (Pool.Outstanding).
func (c *call) reduce(s int) bool {
	g := c.g
	if s == 0 {
		c.valid()
	}
	rootIdx := g.index(c.root)
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(len(g.members), rootIdx, c.me, row[:0])
	switch {
	case s > 0 && len(kids) == 0:
		return c.finish()
	case len(g.members) == 1:
		return c.localCopy(c.recv, c.send)
	case len(kids) == 0:
		return c.sendTo(parent, tagReduce, c.send)
	case s == 0:
		c.buf = c.recv
		if c.me != rootIdx {
			c.buf = g.machine().Buffers.Get(len(c.send))
		}
		return c.chargeCopy(len(c.send)) // staging send into the accumulator: the first fold lands it
	}
	// Receive children nearest-first (ascending offset), the order they
	// complete their subtrees, each folded and its combine charged.
	if s--; s < 2*len(kids) {
		if s%2 == 1 {
			return c.combine()
		}
		var own []byte
		if s == 0 {
			own = c.send
		}
		return c.recvReduce(kids[len(kids)-1-s/2], tagReduce, c.buf, own)
	}
	if s -= 2 * len(kids); s == 0 && c.me != rootIdx {
		return c.sendTo(parent, tagReduce, c.buf)
	}
	if c.me != rootIdx {
		g.machine().Buffers.Put(c.buf)
	}
	return c.finish()
}

// allreduce is MPICH's, and IBM's above 32 KB: the classic reduce to the first
// member followed by a broadcast.
func (c *call) allreduce(s int) bool {
	g := c.g
	switch s {
	case 0:
		g.begin(c.t, c.rank, (*call).reduce, c.send, c.recv, c.dt, c.op, g.members[0], c)
		return true
	case 1:
		g.begin(c.t, c.rank, (*call).bcast, c.recv, nil, 0, 0, g.members[0], c)
		return true
	}
	return c.finish()
}

// allreduceRD is IBM's allreduce up to 32 KB: recursive doubling over group
// indices with pairwise Sendrecv, folding non-power-of-two remainders in and
// out.
func (c *call) allreduceRD(s int) bool {
	g := c.g
	P := len(g.members)
	pow := 1 << (bits.Len(uint(P)) - 1)
	switch {
	case s == 0:
		c.valid()
		return c.localCopy(c.recv, c.send)
	case P == 1:
		return c.finish()
	case c.me >= pow: // fold out: contribute to the partner, then wait for the result
		switch s {
		case 1:
			return c.sendTo(c.me-pow, tagAllreduce, c.recv)
		case 2:
			return c.recvFrom(c.me-pow, tagAllreduce, c.recv)
		}
		return c.finish()
	}
	if s--; c.me+pow < P { // fold in
		switch s {
		case 0:
			return c.recvReduce(c.me+pow, tagAllreduce, c.recv, nil)
		case 1:
			return c.combine()
		}
		s -= 2
	}
	// The exchange cannot fold: the partner's bytes may land while this rank's
	// own send of recv is still reading it.
	if s < 2*rounds(pow) {
		if s%2 == 1 {
			dtype.Reduce(c.op, c.dt, c.recv, c.scratch)
			return c.combine()
		}
		if s == 0 {
			c.scratch = g.machine().Buffers.Get(len(c.send))
		}
		partner := c.me ^ 1<<(s/2)
		return c.exchange(partner, partner, tagAllreduce, c.recv, c.scratch)
	}
	if s == 2*rounds(pow) {
		g.machine().Buffers.Put(c.scratch)
		if c.me+pow < P {
			return c.sendTo(c.me+pow, tagAllreduce, c.recv)
		}
	}
	return c.finish()
}

// reduceScatter combines members' send vectors and scatters block i to the
// member with group rank i — the MPICH-1 era algorithm: a reduce to the first
// member followed by a block scatter.
func (c *call) reduceScatter(s int) bool {
	g := c.g
	root := g.members[0]
	switch s {
	case 0:
		if len(c.send) != len(c.recv)*len(g.members) {
			panic(fmt.Sprintf("baseline: ReduceScatter send %d bytes, want %d",
				len(c.send), len(c.recv)*len(g.members)))
		}
		if c.rank == root {
			c.buf = g.machine().Buffers.Get(len(c.send))
		}
		g.begin(c.t, c.rank, (*call).reduce, c.send, c.buf, c.dt, c.op, root, c)
		return true
	case 1:
		g.begin(c.t, c.rank, (*call).scatter, c.buf, c.recv, 0, 0, root, c)
		return true
	}
	g.machine().Buffers.Put(c.buf)
	return c.finish()
}

// scan is the inclusive prefix reduction over group ranks, using the
// Hillis-Steele doubling schedule with nonblocking sends, four steps a
// doubling; exscan, the exclusive prefix, shifts it by one member, and the
// first member's recv is zeroed.
func (c *call) scan(s int) bool { return c.prefix(s, false) }

func (c *call) exscan(s int) bool { return c.prefix(s, true) }

func (c *call) prefix(s int, exclusive bool) bool {
	g := c.g
	P, me := len(g.members), c.me
	if s == 0 {
		c.valid()
		return c.localCopy(c.recv, c.send)
	}
	if s--; s == 0 {
		// Each step receives into scratch, not by folding into recv: the
		// bytes may land while this rank's own Isend of recv is still
		// reading it.
		c.scratch = g.machine().Buffers.Get(len(c.send))
	}
	if s < 4*rounds(P) {
		dist := 1 << (s / 4)
		switch s % 4 {
		case 0:
			return me+dist < P && c.isend(me+dist, tagScan, c.recv)
		case 1:
			return me-dist >= 0 && c.recvFrom(me-dist, tagScan, c.scratch)
		case 2:
			return c.awaitSend() // the send references recv; complete it before updating
		}
		if me-dist < 0 {
			return false
		}
		dtype.Reduce(c.op, c.dt, c.recv, c.scratch)
		return c.combine()
	}
	if s -= 4 * rounds(P); exclusive {
		switch s {
		case 0:
			return me+1 < P && c.isend(me+1, tagScan, c.recv)
		case 1:
			return me > 0 && c.recvFrom(me-1, tagScan, c.scratch)
		case 2:
			return c.awaitSend() // recv is about to be overwritten
		case 3:
			if me > 0 {
				return c.localCopy(c.recv, c.scratch)
			}
			clear(c.recv)
		}
	}
	g.machine().Buffers.Put(c.scratch)
	return c.finish()
}
