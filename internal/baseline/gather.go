package baseline

import (
	"fmt"

	"srmcoll/internal/check"
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

// gather collects each member's blk-byte send into recv at root (group
// order). Blocks travel up a binomial tree over group indices, each vertex
// forwarding its subtree's concatenation; the tree is built in relative rank
// space, so a subtree always covers a contiguous relative range.
func (c *call) gather(s int) bool {
	g := c.g
	rootIdx := g.index(c.root)
	P, blk := len(g.members), len(c.send)
	rel := (c.me - rootIdx + P) % P
	if s == 0 {
		if c.rank == c.root {
			check.Size("baseline.Gather", c.rank, "recv", len(c.recv), blk*P)
		}
		if P == 1 {
			return c.localCopy(c.recv, c.send)
		}
		c.buf = make([]byte, subtreeSize(rel, P)*blk)
		return c.localCopy(c.buf[:blk], c.send)
	}
	if P == 1 {
		return c.finish()
	}
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(P, rootIdx, c.me, row[:0])
	// Children report in relative order; child v+2^k holds [v+2^k, ...).
	if s--; s < len(kids) {
		child := kids[len(kids)-1-s]
		childRel := (child - rootIdx + P) % P
		off := (childRel - rel) * blk
		return c.recvFrom(child, tagGather, c.buf[off:off+subtreeSize(childRel, P)*blk])
	}
	switch {
	case s > len(kids):
		return c.finish()
	case c.me != rootIdx:
		return c.sendTo(parent, tagGather, c.buf)
	}
	// Unrotate from relative to group order into recv.
	for v := 0; v < P; v++ {
		grp := (v + rootIdx) % P
		copy(c.recv[grp*blk:(grp+1)*blk], c.buf[v*blk:(v+1)*blk])
	}
	return c.chargeCopy(len(c.recv))
}

// scatter distributes root's send (group order) so each member receives
// blk = len(recv) bytes, via a binomial fan-out with halving payloads.
func (c *call) scatter(s int) bool {
	g := c.g
	rootIdx := g.index(c.root)
	P, blk := len(g.members), len(c.recv)
	rel := (c.me - rootIdx + P) % P
	var row [tree.MaxBinomialChildren]int
	parent, kids := tree.BinomialRow(P, rootIdx, c.me, row[:0])
	if s == 0 {
		if c.rank == c.root {
			check.Size("baseline.Scatter", c.rank, "send", len(c.send), blk*P)
		}
		switch {
		case P == 1:
			return c.localCopy(c.recv, c.send)
		case c.me != rootIdx:
			c.buf = make([]byte, subtreeSize(rel, P)*blk)
			return c.recvFrom(parent, tagScatter, c.buf)
		}
		// Rotate into relative order once.
		c.buf = make([]byte, P*blk)
		for v := 0; v < P; v++ {
			grp := (v + rootIdx) % P
			copy(c.buf[v*blk:(v+1)*blk], c.send[grp*blk:(grp+1)*blk])
		}
		return c.chargeCopy(len(c.send))
	}
	s--
	switch {
	case P == 1 || s > len(kids):
		return c.finish()
	case s == len(kids):
		return c.localCopy(c.recv, c.buf[:blk])
	}
	childRel := (kids[s] - rootIdx + P) % P
	off := (childRel - rel) * blk
	return c.sendTo(kids[s], tagScatter, c.buf[off:off+subtreeSize(childRel, P)*blk])
}

// allgather concatenates every member's block into every member's recv via
// the classic ring: P-1 steps, passing the left neighbor's newest block on.
func (c *call) allgather(s int) bool {
	P, blk, me := len(c.g.members), len(c.send), c.me
	switch {
	case s == 0:
		check.Size("baseline.Allgather", c.rank, "recv", len(c.recv), blk*P)
		return c.localCopy(c.recv[me*blk:(me+1)*blk], c.send)
	case s == P:
		return c.finish()
	}
	out, in := (me-s+1+P)%P, (me-s+P)%P
	return c.exchange((me+1)%P, (me-1+P)%P, tagAllgather,
		c.recv[out*blk:(out+1)*blk], c.recv[in*blk:(in+1)*blk])
}

// alltoall exchanges blocks between all members with the classic pairwise
// Sendrecv schedule: P-1 steps, partner (me+step) mod P, plus a local copy
// for the self block.
func (c *call) alltoall(s int) bool {
	P, me := len(c.g.members), c.me
	blk := len(c.send) / P
	switch {
	case s == 0:
		check.Size("baseline.Alltoall", c.rank, "recv", len(c.recv), len(c.send))
		if len(c.send)%P != 0 {
			panic(fmt.Sprintf("baseline: Alltoall send %d bytes not divisible over %d members",
				len(c.send), P))
		}
		return c.localCopy(c.recv[me*blk:(me+1)*blk], c.send[me*blk:(me+1)*blk])
	case s == P:
		return c.finish()
	}
	to, from := (me+s)%P, (me-s+P)%P
	return c.exchange(to, from, tagAlltoall, c.send[to*blk:(to+1)*blk], c.recv[from*blk:(from+1)*blk])
}
