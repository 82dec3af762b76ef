// Package baseline implements the collective operations the paper compares
// against: collectives layered on point-to-point message passing, in two
// flavors — the vendor-style "IBM MPI" (leaner stack, recursive doubling
// where it helps, task-count-scaled Eager limit) and "MPICH" (binomial
// trees for broadcast and reduce, reduce+broadcast allreduce, fan-in/
// fan-out barrier, deeper protocol stack). Both are rank-order algorithms:
// unlike SRM they are not SMP-aware — intra-node edges merely happen to use
// the shared-memory p2p device.
package baseline

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/mpi"
	"srmcoll/internal/sim"
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
// because calls are blocking and SPMD-ordered.
const (
	tagBarrier = 1000 + iota
	tagBcast
	tagReduce
	tagAllreduce
	tagScan
)

// Coll provides MPI-style collectives over the point-to-point layer.
type Coll struct {
	w      *mpi.World
	flavor Flavor
	all    *Group // cached all-ranks group for the extension collectives
}

// New builds the collectives of the given flavor on a machine.
func New(m *machine.Machine, f Flavor) *Coll {
	proto := mpi.IBM()
	if f == MPICH {
		proto = mpi.MPICH()
	}
	return &Coll{w: mpi.NewWorld(m, proto), flavor: f}
}

// World exposes the underlying point-to-point layer.
func (c *Coll) World() *mpi.World { return c.w }

// Flavor returns the modeled implementation.
func (c *Coll) Flavor() Flavor { return c.flavor }

func (c *Coll) machine() *machine.Machine { return c.w.Machine() }

// localCopy charges and records a protocol-internal buffer copy.
func (c *Coll) localCopy(p *sim.Proc, rank int, dst, src []byte) {
	m := c.machine()
	m.ChargeCopy(p, m.NodeOf(rank), len(src))
	copy(dst, src)
	m.Stats.AddPlainCopy(len(src))
}

// combine charges one elementwise reduction.
func (c *Coll) combine(p *sim.Proc, rank, n, elem int) {
	m := c.machine()
	p.Sleep(m.CombineTime(n))
	m.Stats.AddReduce(n / max(1, elem))
}

// Barrier blocks until every rank entered it. Both era implementations use
// a binomial fan-in followed by a fan-out over ranks (dissemination-style
// MPI barriers arrived later); the flavors differ only through their
// point-to-point protocol costs.
func (c *Coll) Barrier(p *sim.Proc, rank int) {
	P := c.w.Size()
	if P == 1 {
		return
	}
	r := c.w.Rank(rank)
	one := []byte{1}
	buf := make([]byte, 1)
	tr := tree.New(tree.Binomial, P, 0)
	for _, child := range tr.Children[rank] {
		r.Recv(p, child, tagBarrier, buf)
	}
	if parent := tr.Parent[rank]; parent != -1 {
		r.Send(p, parent, tagBarrier, one)
		r.Recv(p, parent, tagBarrier, buf)
	}
	for _, child := range tr.Children[rank] {
		r.Send(p, child, tagBarrier, one)
	}
}

// Bcast broadcasts buf from root along a binomial tree over ranks — the
// MPICH algorithm the paper names (§2.1), and what the vendor MPI of the
// era used as well.
func (c *Coll) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	P := c.w.Size()
	if P == 1 {
		return
	}
	tr := tree.New(tree.Binomial, P, root)
	r := c.w.Rank(rank)
	if parent := tr.Parent[rank]; parent != -1 {
		r.Recv(p, parent, tagBcast, buf)
	}
	for _, child := range tr.Children[rank] {
		r.Send(p, child, tagBcast, buf)
	}
}

// Reduce combines send buffers along a binomial tree over ranks, leaving
// the result in recv at root (ignored elsewhere; may be nil). Each interior
// rank stages its accumulator and receives children into scratch buffers —
// the data movement at every tree level that Figure 2 contrasts with the
// SRM shared-memory reduce. The staging buffers come from the machine's pool
// and go back once the rank is through with them; a rank unwound out of the
// operation leaves them to the collector, because a transfer matched before
// the unwind may still land in them.
func (c *Coll) Reduce(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op, root int) {
	if !dtype.Valid(op, dt) {
		panic(fmt.Sprintf("baseline: operator %s invalid for %s", op, dt))
	}
	P := c.w.Size()
	n := len(send)
	if P == 1 {
		c.localCopy(p, rank, recv, send)
		return
	}
	tr := tree.New(tree.Binomial, P, root)
	r := c.w.Rank(rank)
	if len(tr.Children[rank]) == 0 {
		r.Send(p, tr.Parent[rank], tagReduce, send)
		return
	}
	pool := c.machine().Buffers
	acc := recv
	if rank != root {
		acc = pool.Get(n)
	}
	c.localCopy(p, rank, acc, send)
	scratch := pool.Get(n)
	// Receive children nearest-first (ascending offset), the order they
	// complete their subtrees.
	kids := tr.Children[rank]
	for i := len(kids) - 1; i >= 0; i-- {
		r.Recv(p, kids[i], tagReduce, scratch)
		dtype.Reduce(op, dt, acc, scratch)
		c.combine(p, rank, n, dt.Size())
	}
	pool.Put(scratch)
	if rank != root {
		r.Send(p, tr.Parent[rank], tagReduce, acc)
		pool.Put(acc)
	}
}

// Allreduce leaves the combined result in every rank's recv. MPICH models
// the classic reduce-to-0 followed by broadcast; IBM uses recursive
// doubling up to 32 KB, then reduce+broadcast.
func (c *Coll) Allreduce(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	if c.flavor == IBM && len(send) <= rdAllreduceLimit {
		c.allreduceRD(p, rank, send, recv, dt, op)
		return
	}
	c.Reduce(p, rank, send, recv, dt, op, 0)
	c.Bcast(p, rank, recv, 0)
}

// allreduceRD is recursive doubling over ranks with pairwise Sendrecv,
// folding non-power-of-two remainders in and out.
func (c *Coll) allreduceRD(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	if !dtype.Valid(op, dt) {
		panic(fmt.Sprintf("baseline: operator %s invalid for %s", op, dt))
	}
	P := c.w.Size()
	n := len(send)
	r := c.w.Rank(rank)
	c.localCopy(p, rank, recv, send)
	if P == 1 {
		return
	}
	pow := 1
	for pow*2 <= P {
		pow *= 2
	}
	if rank >= pow {
		// Fold out: contribute to the partner, then wait for the result.
		r.Send(p, rank-pow, tagAllreduce, recv)
		r.Recv(p, rank-pow, tagAllreduce, recv)
		return
	}
	scratch := c.machine().Buffers.Get(n)
	if rank+pow < P {
		r.Recv(p, rank+pow, tagAllreduce, scratch)
		dtype.Reduce(op, dt, recv, scratch)
		c.combine(p, rank, n, dt.Size())
	}
	for dist := 1; dist < pow; dist *= 2 {
		partner := rank ^ dist
		r.Sendrecv(p, partner, tagAllreduce, recv, partner, tagAllreduce, scratch)
		dtype.Reduce(op, dt, recv, scratch)
		c.combine(p, rank, n, dt.Size())
	}
	c.machine().Buffers.Put(scratch)
	if rank+pow < P {
		r.Send(p, rank+pow, tagAllreduce, recv)
	}
}

// ReduceScatter combines members' send vectors and scatters block i to the
// member with group rank i — the MPICH-1 era algorithm: a reduce to the
// first member followed by a block scatter.
func (g *Group) ReduceScatter(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	if len(send) != len(recv)*len(g.members) {
		panic(fmt.Sprintf("baseline: ReduceScatter send %d bytes, want %d",
			len(send), len(recv)*len(g.members)))
	}
	root := g.members[0]
	var full []byte
	if rank == root {
		full = g.c.machine().Buffers.Get(len(send))
	}
	g.Reduce(p, rank, send, full, dt, op, root)
	g.Scatter(p, rank, full, recv, root)
	g.c.machine().Buffers.Put(full)
}

// ReduceScatter is Group.ReduceScatter over all ranks.
func (c *Coll) ReduceScatter(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	c.world().ReduceScatter(p, rank, send, recv, dt, op)
}

// Scan is the inclusive prefix reduction over group ranks, using the
// Hillis-Steele doubling schedule with nonblocking sends.
func (g *Group) Scan(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	g.scan(p, rank, send, recv, dt, op, false)
}

// Exscan is the exclusive prefix; the first member's recv is zeroed.
func (g *Group) Exscan(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	g.scan(p, rank, send, recv, dt, op, true)
}

func (g *Group) scan(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op, exclusive bool) {
	if !dtype.Valid(op, dt) {
		panic(fmt.Sprintf("baseline: operator %s invalid for %s", op, dt))
	}
	me := g.index(rank)
	P := len(g.members)
	n := len(send)
	r := g.c.w.Rank(rank)
	g.c.localCopy(p, rank, recv, send)
	scratch := make([]byte, n)
	for dist := 1; dist < P; dist *= 2 {
		var sreq *mpi.Request
		if me+dist < P {
			sreq = r.Isend(p, g.members[me+dist], tagScan, recv)
		}
		if me-dist >= 0 {
			r.Recv(p, g.members[me-dist], tagScan, scratch)
		}
		if sreq != nil {
			sreq.Wait(p) // the send references recv; complete it before updating
		}
		if me-dist >= 0 {
			dtype.Reduce(op, dt, recv, scratch)
			g.c.combine(p, rank, n, dt.Size())
		}
	}
	if !exclusive {
		return
	}
	var sreq *mpi.Request
	if me+1 < P {
		sreq = r.Isend(p, g.members[me+1], tagScan, recv)
	}
	if me > 0 {
		r.Recv(p, g.members[me-1], tagScan, scratch)
	}
	if sreq != nil {
		sreq.Wait(p) // recv is about to be overwritten
	}
	if me > 0 {
		g.c.localCopy(p, rank, recv, scratch)
	} else {
		for i := range recv {
			recv[i] = 0
		}
	}
}

// Scan is Group.Scan over all ranks.
func (c *Coll) Scan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	c.world().Scan(p, rank, send, recv, dt, op)
}

// Exscan is Group.Exscan over all ranks.
func (c *Coll) Exscan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	c.world().Exscan(p, rank, send, recv, dt, op)
}
