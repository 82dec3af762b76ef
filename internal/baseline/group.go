package baseline

import (
	"fmt"
	"slices"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
	"srmcoll/internal/mpi"
	"srmcoll/internal/ranks"
	"srmcoll/internal/sim"
)

// Group provides the collectives over an arbitrary subset of ranks, the
// way MPI communicators carve up MPI_COMM_WORLD. Trees run over group-rank
// indices, each member computing its own row (tree.BinomialRow) per step; the
// point-to-point layer is shared, and disjoint groups cannot cross-match
// because sources differ.
type Group struct {
	w       *mpi.World
	flavor  Flavor
	calls   *bufpool.Frames[call, *call] // the world group's, shared by every group carved from it
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

// Sub returns a group over a subset of this group's members. A group carries
// no operation state, so the caller decides how long to keep it: the library's
// communicators resolve theirs once and share it among the members.
func (g *Group) Sub(members []int) *Group {
	for _, r := range members {
		if g.pos.Of(r) < 0 {
			panic(fmt.Sprintf("baseline: rank %d is not a member of the parent group", r))
		}
	}
	return &Group{w: g.w, flavor: g.flavor, calls: g.calls, members: slices.Clone(members),
		pos: ranks.NewIndex("baseline", members, g.w.Size())}
}

// call is one member's collective in progress, from its start to its
// continuation: which collective, its arguments, and the steps taken, from
// which each step works out where in its algorithm the member is, binomial row
// included. It resumes as itself, and a step ends in the one point-to-point
// operation, copy charge or combine that the next waits for, passing the call
// as the continuation; a composite collective runs its parts as calls of their
// own. Records come from the world group's list and go back as the
// continuation runs, so a collective allocates nothing of its own.
type call struct {
	bufpool.Link[call]
	g          *Group
	t          *sim.Task
	r          *mpi.Rank
	k          sim.K
	alg        func(c *call, s int) bool // the algorithm, step by step
	s          int                       // the steps taken
	rank, me   int                       // the member, as a global rank and as a group index
	send, recv []byte
	dt         dtype.Type
	op         dtype.Op
	root       int // a global rank
	buf        []byte
	scratch    []byte
	sreq       *mpi.Request // a scan step's send, in flight
	flag       [1]byte      // a barrier's receive buffer
}

// begin starts rank's collective on t, the algorithm alg over the arguments of
// its XT method (root a global rank), resuming k at the end.
func (g *Group) begin(t *sim.Task, rank int, alg func(*call, int) bool, send, recv []byte, dt dtype.Type, op dtype.Op, root int, k sim.K) {
	c := g.calls.Get()
	c.g, c.t, c.r, c.k, c.alg, c.rank, c.me = g, t, g.w.Rank(rank), k, alg, rank, g.index(rank)
	c.send, c.recv, c.dt, c.op, c.root = send, recv, dt, op, root
	c.Resume()
}

// Resume takes the call's next steps, up to the first that ends in an
// operation the call waits for: step s of the algorithm reports whether it
// ended in one, or in the call's end; if not, step s+1 follows at once.
func (c *call) Resume() {
	for {
		c.s++
		if c.alg(c, c.s-1) {
			return
		}
	}
}

// finish ends the call: its record goes back, and its continuation runs.
func (c *call) finish() bool {
	k := c.k
	c.g.calls.Put(c)
	k.Resume()
	return true
}

// Bcast is BcastT from a process body.
func (g *Group) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	g.BcastT(&p.Task, rank, buf, root, p.Resume())
	p.Park()
}

// BarrierT resumes k once every member has entered the barrier.
func (g *Group) BarrierT(t *sim.Task, rank int, k sim.K) {
	g.begin(t, rank, (*call).barrier, nil, nil, 0, 0, 0, k)
}

// BcastT broadcasts buf from the member rank root, then resumes k.
func (g *Group) BcastT(t *sim.Task, rank int, buf []byte, root int, k sim.K) {
	g.begin(t, rank, (*call).bcast, buf, nil, 0, 0, root, k)
}

// ReduceT combines the members' send buffers into recv at the member rank
// root, then resumes k.
func (g *Group) ReduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int, k sim.K) {
	g.begin(t, rank, (*call).reduce, send, recv, dt, op, root, k)
}

// AllreduceT leaves the combined result in every member's recv, then resumes
// k: MPICH's and IBM's above 32 KB by reduce and broadcast, IBM's up to 32 KB
// by recursive doubling.
func (g *Group) AllreduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, k sim.K) {
	alg := (*call).allreduce
	if g.flavor == IBM && len(send) <= rdAllreduceLimit {
		alg = (*call).allreduceRD
	}
	g.begin(t, rank, alg, send, recv, dt, op, 0, k)
}

// GatherT collects every member's send block into recv at root, then resumes k.
func (g *Group) GatherT(t *sim.Task, rank int, send, recv []byte, root int, k sim.K) {
	g.begin(t, rank, (*call).gather, send, recv, 0, 0, root, k)
}

// ScatterT distributes root's send block by block into the members' recv, then
// resumes k.
func (g *Group) ScatterT(t *sim.Task, rank int, send, recv []byte, root int, k sim.K) {
	g.begin(t, rank, (*call).scatter, send, recv, 0, 0, root, k)
}

// AllgatherT concatenates every member's block into every member's recv, then
// resumes k.
func (g *Group) AllgatherT(t *sim.Task, rank int, send, recv []byte, k sim.K) {
	g.begin(t, rank, (*call).allgather, send, recv, 0, 0, 0, k)
}

// AlltoallT exchanges blocks between all members, then resumes k.
func (g *Group) AlltoallT(t *sim.Task, rank int, send, recv []byte, k sim.K) {
	g.begin(t, rank, (*call).alltoall, send, recv, 0, 0, 0, k)
}

// ReduceScatterT combines the members' send vectors and leaves block i in
// member i's recv, then resumes k.
func (g *Group) ReduceScatterT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, k sim.K) {
	g.begin(t, rank, (*call).reduceScatter, send, recv, dt, op, 0, k)
}

// ScanT leaves the inclusive prefix reduction in recv, then resumes k.
func (g *Group) ScanT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, k sim.K) {
	g.begin(t, rank, (*call).scan, send, recv, dt, op, 0, k)
}

// ExscanT leaves the exclusive prefix reduction in recv (the first member's
// zeroed), then resumes k.
func (g *Group) ExscanT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, k sim.K) {
	g.begin(t, rank, (*call).exscan, send, recv, dt, op, 0, k)
}
