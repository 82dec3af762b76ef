package baseline

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
)

// Group provides the collectives over an arbitrary subset of ranks, the
// way MPI communicators carve up MPI_COMM_WORLD. Trees are built over
// group-rank indices; the point-to-point layer is shared, and disjoint
// groups cannot cross-match because sources differ.
type Group struct {
	c       *Coll
	members []int
	pos     map[int]int // global rank -> group index
}

// Group returns a collective group over the given member ranks.
func (c *Coll) Group(members []int) *Group {
	if len(members) == 0 {
		panic("baseline: empty task group")
	}
	g := &Group{c: c, members: append([]int(nil), members...), pos: make(map[int]int, len(members))}
	for i, r := range members {
		if r < 0 || r >= c.w.Size() {
			panic(fmt.Sprintf("baseline: group rank %d out of range", r))
		}
		if _, dup := g.pos[r]; dup {
			panic(fmt.Sprintf("baseline: duplicate rank %d in group", r))
		}
		g.pos[r] = i
	}
	return g
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.members) }

// index returns the group index of a member rank, panicking for outsiders.
func (g *Group) index(rank int) int {
	i, ok := g.pos[rank]
	if !ok {
		panic(fmt.Sprintf("baseline: rank %d is not a member of the group", rank))
	}
	return i
}

// Barrier blocks until every member entered it (binomial fan-in/fan-out
// over group indices).
func (g *Group) Barrier(p *sim.Proc, rank int) {
	me := g.index(rank)
	n := len(g.members)
	if n == 1 {
		return
	}
	r := g.c.w.Rank(rank)
	one := []byte{1}
	buf := make([]byte, 1)
	tr := tree.New(tree.Binomial, n, 0)
	for _, child := range tr.Children[me] {
		r.Recv(p, g.members[child], tagBarrier, buf)
	}
	if parent := tr.Parent[me]; parent != -1 {
		r.Send(p, g.members[parent], tagBarrier, one)
		r.Recv(p, g.members[parent], tagBarrier, buf)
	}
	for _, child := range tr.Children[me] {
		r.Send(p, g.members[child], tagBarrier, one)
	}
}

// Bcast broadcasts buf from the member rank root along a binomial tree
// over group indices.
func (g *Group) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	me := g.index(rank)
	n := len(g.members)
	if n == 1 {
		return
	}
	tr := tree.New(tree.Binomial, n, g.index(root))
	r := g.c.w.Rank(rank)
	if parent := tr.Parent[me]; parent != -1 {
		r.Recv(p, g.members[parent], tagBcast, buf)
	}
	for _, child := range tr.Children[me] {
		r.Send(p, g.members[child], tagBcast, buf)
	}
}

// Reduce combines members' send buffers into recv at the member rank root.
func (g *Group) Reduce(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op, root int) {
	if !dtype.Valid(op, dt) {
		panic(fmt.Sprintf("baseline: operator %s invalid for %s", op, dt))
	}
	me := g.index(rank)
	rootIdx := g.index(root)
	n := len(send)
	if len(g.members) == 1 {
		g.c.localCopy(p, rank, recv, send)
		return
	}
	tr := tree.New(tree.Binomial, len(g.members), rootIdx)
	r := g.c.w.Rank(rank)
	if len(tr.Children[me]) == 0 {
		r.Send(p, g.members[tr.Parent[me]], tagReduce, send)
		return
	}
	pool := g.c.machine().Buffers
	acc := recv
	if me != rootIdx {
		acc = pool.Get(n)
	}
	g.c.localCopy(p, rank, acc, send)
	scratch := pool.Get(n)
	kids := tr.Children[me]
	for i := len(kids) - 1; i >= 0; i-- {
		r.Recv(p, g.members[kids[i]], tagReduce, scratch)
		dtype.Reduce(op, dt, acc, scratch)
		g.c.combine(p, rank, n, dt.Size())
	}
	pool.Put(scratch)
	if me != rootIdx {
		r.Send(p, g.members[tr.Parent[me]], tagReduce, acc)
		pool.Put(acc)
	}
}

// Allreduce combines members' send buffers into every member's recv,
// choosing the same flavor-specific algorithm as the whole-world version.
func (g *Group) Allreduce(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	if g.c.flavor == IBM && len(send) <= rdAllreduceLimit {
		g.allreduceRD(p, rank, send, recv, dt, op)
		return
	}
	g.Reduce(p, rank, send, recv, dt, op, g.members[0])
	g.Bcast(p, rank, recv, g.members[0])
}

// allreduceRD is recursive doubling over group indices.
func (g *Group) allreduceRD(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	if !dtype.Valid(op, dt) {
		panic(fmt.Sprintf("baseline: operator %s invalid for %s", op, dt))
	}
	me := g.index(rank)
	P := len(g.members)
	n := len(send)
	r := g.c.w.Rank(rank)
	g.c.localCopy(p, rank, recv, send)
	if P == 1 {
		return
	}
	pow := 1
	for pow*2 <= P {
		pow *= 2
	}
	if me >= pow {
		r.Send(p, g.members[me-pow], tagAllreduce, recv)
		r.Recv(p, g.members[me-pow], tagAllreduce, recv)
		return
	}
	scratch := g.c.machine().Buffers.Get(n)
	if me+pow < P {
		r.Recv(p, g.members[me+pow], tagAllreduce, scratch)
		dtype.Reduce(op, dt, recv, scratch)
		g.c.combine(p, rank, n, dt.Size())
	}
	for dist := 1; dist < pow; dist *= 2 {
		partner := g.members[me^dist]
		r.Sendrecv(p, partner, tagAllreduce, recv, partner, tagAllreduce, scratch)
		dtype.Reduce(op, dt, recv, scratch)
		g.c.combine(p, rank, n, dt.Size())
	}
	g.c.machine().Buffers.Put(scratch)
	if me+pow < P {
		r.Send(p, g.members[me+pow], tagAllreduce, recv)
	}
}

// Sub returns a group over a subset of this group's members.
func (g *Group) Sub(members []int) *Group {
	for _, r := range members {
		if _, ok := g.pos[r]; !ok {
			panic(fmt.Sprintf("baseline: rank %d is not a member of the parent group", r))
		}
	}
	return g.c.Group(members)
}
