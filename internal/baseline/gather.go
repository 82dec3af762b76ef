package baseline

import (
	"fmt"

	"srmcoll/internal/check"
	"srmcoll/internal/ranks"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
)

// Gather, Scatter and Allgather over point-to-point messaging, with the
// era algorithms: binomial fan-in with growing blocks, binomial fan-out
// with shrinking blocks, and a ring. They complete the baseline operation
// set for the extension collectives in internal/core/gather.go.

const (
	tagGather = 2000 + iota
	tagScatter
	tagAllgather
	tagAlltoall
)

// subtreeSize is the vertex count of the binomial subtree rooted at relative
// rank v of P: it covers [v, v+size) with size the lowest set bit of v (P at
// the root), clipped to P.
func subtreeSize(v, P int) int {
	size := v & (-v)
	if v == 0 {
		size = P
	}
	if v+size > P {
		size = P - v
	}
	return size
}

// Gather collects each member's blk-byte send into recv at root (group
// order). Blocks travel up a binomial tree over group indices, each vertex
// forwarding its subtree's concatenation; the tree is built in relative
// rank space, so a subtree always covers a contiguous relative range.
func (g *Group) Gather(p *sim.Proc, rank int, send, recv []byte, root int) {
	me := g.index(rank)
	rootIdx := g.index(root)
	P := len(g.members)
	blk := len(send)
	if rank == root {
		check.Size("baseline.Gather", rank, "recv", len(recv), blk*P)
	}
	if P == 1 {
		g.c.localCopy(p, rank, recv, send)
		return
	}
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(P, rootIdx, me, row[:0])
	rel := (me - rootIdx + P) % P
	r := g.c.w.Rank(rank)
	mine := subtreeSize(rel, P)
	buf := make([]byte, mine*blk)
	g.c.localCopy(p, rank, buf[:blk], send)
	// Children report in relative order; child v+2^k holds [v+2^k, ...).
	for i := len(kids) - 1; i >= 0; i-- {
		childIdx := kids[i]
		childRel := (childIdx - rootIdx + P) % P
		n := subtreeSize(childRel, P) * blk
		off := (childRel - rel) * blk
		r.Recv(p, g.members[childIdx], tagGather, buf[off:off+n])
	}
	if me != rootIdx {
		r.Send(p, g.members[parent], tagGather, buf)
		return
	}
	// Unrotate from relative to group order into recv.
	for v := 0; v < P; v++ {
		grp := (v + rootIdx) % P
		copy(recv[grp*blk:(grp+1)*blk], buf[v*blk:(v+1)*blk])
	}
	g.c.machine().ChargeCopy(p, g.c.machine().NodeOf(rank), len(recv))
	g.c.machine().Stats.AddPlainCopy(len(recv))
}

// Scatter distributes root's send (group order) so each member receives
// blk = len(recv) bytes, via a binomial fan-out with halving payloads.
func (g *Group) Scatter(p *sim.Proc, rank int, send, recv []byte, root int) {
	me := g.index(rank)
	rootIdx := g.index(root)
	P := len(g.members)
	blk := len(recv)
	if rank == root {
		check.Size("baseline.Scatter", rank, "send", len(send), blk*P)
	}
	if P == 1 {
		g.c.localCopy(p, rank, recv, send)
		return
	}
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(P, rootIdx, me, row[:0])
	rel := (me - rootIdx + P) % P
	r := g.c.w.Rank(rank)
	mine := subtreeSize(rel, P)
	var buf []byte
	if me == rootIdx {
		// Rotate into relative order once.
		buf = make([]byte, P*blk)
		for v := 0; v < P; v++ {
			grp := (v + rootIdx) % P
			copy(buf[v*blk:(v+1)*blk], send[grp*blk:(grp+1)*blk])
		}
		g.c.machine().ChargeCopy(p, g.c.machine().NodeOf(rank), len(send))
		g.c.machine().Stats.AddPlainCopy(len(send))
	} else {
		buf = make([]byte, mine*blk)
		r.Recv(p, g.members[parent], tagScatter, buf)
	}
	for _, childIdx := range kids {
		childRel := (childIdx - rootIdx + P) % P
		n := subtreeSize(childRel, P) * blk
		off := (childRel - rel) * blk
		r.Send(p, g.members[childIdx], tagScatter, buf[off:off+n])
	}
	g.c.localCopy(p, rank, recv, buf[:blk])
}

// Allgather concatenates every member's block into every member's recv via
// the classic ring: P-1 steps, passing the left neighbor's newest block on.
func (g *Group) Allgather(p *sim.Proc, rank int, send, recv []byte) {
	me := g.index(rank)
	P := len(g.members)
	blk := len(send)
	check.Size("baseline.Allgather", rank, "recv", len(recv), blk*P)
	r := g.c.w.Rank(rank)
	g.c.localCopy(p, rank, recv[me*blk:(me+1)*blk], send)
	if P == 1 {
		return
	}
	right := g.members[(me+1)%P]
	left := g.members[(me-1+P)%P]
	for step := 1; step < P; step++ {
		outIdx := (me - step + 1 + P) % P
		inIdx := (me - step + P) % P
		r.Sendrecv(p, right, tagAllgather, recv[outIdx*blk:(outIdx+1)*blk],
			left, tagAllgather, recv[inIdx*blk:(inIdx+1)*blk])
	}
}

// World-level wrappers over the implicit all-ranks group.

// Gather is Group.Gather over all ranks.
func (c *Coll) Gather(p *sim.Proc, rank int, send, recv []byte, root int) {
	c.world().Gather(p, rank, send, recv, root)
}

// Scatter is Group.Scatter over all ranks.
func (c *Coll) Scatter(p *sim.Proc, rank int, send, recv []byte, root int) {
	c.world().Scatter(p, rank, send, recv, root)
}

// Allgather is Group.Allgather over all ranks.
func (c *Coll) Allgather(p *sim.Proc, rank int, send, recv []byte) {
	c.world().Allgather(p, rank, send, recv)
}

// world returns (and caches) the all-ranks group: members[i] == i, so its
// index stores nothing.
func (c *Coll) world() *Group {
	if c.all == nil {
		members := make([]int, c.w.Size())
		for i := range members {
			members[i] = i
		}
		c.all = &Group{c: c, members: members, pos: ranks.All(len(members))}
	}
	return c.all
}

// Alltoall exchanges blocks between all members with the classic pairwise
// Sendrecv schedule: P-1 steps, partner (me+step) mod P, plus a local copy
// for the self block.
func (g *Group) Alltoall(p *sim.Proc, rank int, send, recv []byte) {
	me := g.index(rank)
	P := len(g.members)
	check.Size("baseline.Alltoall", rank, "recv", len(recv), len(send))
	if len(send)%P != 0 {
		panic(fmt.Sprintf("baseline: Alltoall send %d bytes not divisible over %d members",
			len(send), P))
	}
	blk := len(send) / P
	r := g.c.w.Rank(rank)
	g.c.localCopy(p, rank, recv[me*blk:(me+1)*blk], send[me*blk:(me+1)*blk])
	for step := 1; step < P; step++ {
		to := (me + step) % P
		from := (me - step + P) % P
		r.Sendrecv(p, g.members[to], tagAlltoall, send[to*blk:(to+1)*blk],
			g.members[from], tagAlltoall, recv[from*blk:(from+1)*blk])
	}
}

// Alltoall is Group.Alltoall over all ranks.
func (c *Coll) Alltoall(p *sim.Proc, rank int, send, recv []byte) {
	c.world().Alltoall(p, rank, send, recv)
}
