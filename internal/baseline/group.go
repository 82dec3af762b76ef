package baseline

import (
	"fmt"
	"slices"

	"srmcoll/internal/dtype"
	"srmcoll/internal/mpi"
	"srmcoll/internal/ranks"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
)

// Group provides the collectives over an arbitrary subset of ranks, the
// way MPI communicators carve up MPI_COMM_WORLD. Trees run over group-rank
// indices, each member computing its own row (tree.BinomialRow) per call; the
// point-to-point layer is shared, and disjoint groups cannot cross-match
// because sources differ.
type Group struct {
	w       *mpi.World
	flavor  Flavor
	members []int
	pos     ranks.Index // global rank -> group index
}

// Members returns the member list in group order; the caller must not write
// to it.
func (g *Group) Members() []int { return g.members }

// Index returns the group index of a global rank, or -1 for a non-member.
func (g *Group) Index(rank int) int { return g.pos.Of(rank) }

// index returns the group index of a member rank, panicking for outsiders.
func (g *Group) index(rank int) int {
	i := g.pos.Of(rank)
	if i < 0 {
		panic(fmt.Sprintf("baseline: rank %d is not a member of the group", rank))
	}
	return i
}

// Barrier blocks until every member entered it. Both era implementations use
// a binomial fan-in followed by a fan-out over group indices
// (dissemination-style MPI barriers arrived later); the flavors differ only
// through their point-to-point protocol costs.
func (g *Group) Barrier(p *sim.Proc, rank int) {
	me := g.index(rank)
	n := len(g.members)
	if n == 1 {
		return
	}
	r := g.w.Rank(rank)
	one := []byte{1}
	buf := make([]byte, 1)
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(n, 0, me, row[:0])
	for _, child := range kids {
		r.Recv(p, g.members[child], tagBarrier, buf)
	}
	if parent != -1 {
		r.Send(p, g.members[parent], tagBarrier, one)
		r.Recv(p, g.members[parent], tagBarrier, buf)
	}
	for _, child := range kids {
		r.Send(p, g.members[child], tagBarrier, one)
	}
}

// Bcast broadcasts buf from the member rank root along a binomial tree
// over group indices — the MPICH algorithm the paper names (§2.1), and what
// the vendor MPI of the era used as well.
func (g *Group) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	me := g.index(rank)
	n := len(g.members)
	if n == 1 {
		return
	}
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(n, g.index(root), me, row[:0])
	r := g.w.Rank(rank)
	if parent != -1 {
		r.Recv(p, g.members[parent], tagBcast, buf)
	}
	for _, child := range kids {
		r.Send(p, g.members[child], tagBcast, buf)
	}
}

// Reduce combines members' send buffers along a binomial tree over group
// indices, leaving the result in recv at the member rank root (ignored
// elsewhere; may be nil). Each interior member stages its accumulator and
// receives every child into it — the data movement at every tree level that
// Figure 2 contrasts with the SRM shared-memory reduce. Both are charged as
// the copies they are, but the bytes move once: each child is folded into the
// accumulator where its message lands (mpi.Rank.RecvReduce), and the staging
// copy's bytes land with the first child's fold, acc = send op child. A non-root
// accumulator comes from the machine's pool and goes back once the member is
// through with it; a member unwound out of the operation keeps it out of the
// pool for the rest of the run, because a transfer matched before the unwind
// may still land in it. It is memory of the pool's blocks all the same: the
// rewind at the end of the run takes it back with everything else, once
// nothing can land anywhere (bufpool.HandBack), and the run is counted as
// having left it out (Pool.Outstanding).
func (g *Group) Reduce(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op, root int) {
	if !dtype.Valid(op, dt) {
		panic(fmt.Sprintf("baseline: operator %s invalid for %s", op, dt))
	}
	me := g.index(rank)
	rootIdx := g.index(root)
	n := len(send)
	if len(g.members) == 1 {
		g.localCopy(p, rank, recv, send)
		return
	}
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(len(g.members), rootIdx, me, row[:0])
	r := g.w.Rank(rank)
	if len(kids) == 0 {
		r.Send(p, g.members[parent], tagReduce, send)
		return
	}
	pool := g.machine().Buffers
	acc := recv
	if me != rootIdx {
		acc = pool.Get(n)
	}
	g.chargeCopy(p, rank, n) // staging send into acc: the first fold lands it
	own := send
	// Receive children nearest-first (ascending offset), the order they
	// complete their subtrees.
	for i := len(kids) - 1; i >= 0; i-- {
		r.RecvReduce(p, g.members[kids[i]], tagReduce, acc, mpi.Fold{Op: op, Type: dt, Own: own})
		own = nil
		g.combine(p, n, dt.Size())
	}
	if me != rootIdx {
		r.Send(p, g.members[parent], tagReduce, acc)
		pool.Put(acc)
	}
}

// Allreduce leaves the combined result in every member's recv. MPICH models
// the classic reduce-to-first-member followed by broadcast; IBM uses recursive
// doubling up to 32 KB, then reduce+broadcast.
func (g *Group) Allreduce(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	if g.flavor == IBM && len(send) <= rdAllreduceLimit {
		g.allreduceRD(p, rank, send, recv, dt, op)
		return
	}
	g.Reduce(p, rank, send, recv, dt, op, g.members[0])
	g.Bcast(p, rank, recv, g.members[0])
}

// allreduceRD is recursive doubling over group indices with pairwise
// Sendrecv, folding non-power-of-two remainders in and out.
func (g *Group) allreduceRD(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	if !dtype.Valid(op, dt) {
		panic(fmt.Sprintf("baseline: operator %s invalid for %s", op, dt))
	}
	me := g.index(rank)
	P := len(g.members)
	n := len(send)
	r := g.w.Rank(rank)
	g.localCopy(p, rank, recv, send)
	if P == 1 {
		return
	}
	pow := 1
	for pow*2 <= P {
		pow *= 2
	}
	if me >= pow {
		// Fold out: contribute to the partner, then wait for the result.
		r.Send(p, g.members[me-pow], tagAllreduce, recv)
		r.Recv(p, g.members[me-pow], tagAllreduce, recv)
		return
	}
	if me+pow < P {
		r.RecvReduce(p, g.members[me+pow], tagAllreduce, recv, mpi.Fold{Op: op, Type: dt})
		g.combine(p, n, dt.Size())
	}
	// The exchange cannot fold: the partner's bytes may land while this
	// rank's own send of recv is still reading it.
	scratch := g.machine().Buffers.Get(n)
	for dist := 1; dist < pow; dist *= 2 {
		partner := g.members[me^dist]
		r.Sendrecv(p, partner, tagAllreduce, recv, partner, tagAllreduce, scratch)
		dtype.Reduce(op, dt, recv, scratch)
		g.combine(p, n, dt.Size())
	}
	g.machine().Buffers.Put(scratch)
	if me+pow < P {
		r.Send(p, g.members[me+pow], tagAllreduce, recv)
	}
}

// Sub returns a group over a subset of this group's members. A group carries
// no operation state, so the caller decides how long to keep it: the library's
// communicators resolve theirs once and share it among the members.
func (g *Group) Sub(members []int) *Group {
	for _, r := range members {
		if g.pos.Of(r) < 0 {
			panic(fmt.Sprintf("baseline: rank %d is not a member of the parent group", r))
		}
	}
	return &Group{w: g.w, flavor: g.flavor, members: slices.Clone(members),
		pos: ranks.NewIndex("baseline", members, g.w.Size())}
}
