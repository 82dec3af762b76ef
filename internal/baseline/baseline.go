// Package baseline implements the collective operations the paper compares
// against: collectives layered on point-to-point message passing, in two
// flavors — the vendor-style "IBM MPI" (leaner stack, recursive doubling
// where it helps, task-count-scaled Eager limit) and "MPICH" (binomial
// trees for broadcast and reduce, reduce+broadcast allreduce, fan-in/
// fan-out barrier, deeper protocol stack). Both are rank-order algorithms:
// unlike SRM they are not SMP-aware — intra-node edges merely happen to use
// the shared-memory p2p device.
//
// No tree is ever built: on each call a rank computes its own parent and
// children (tree.BinomialRow, O(log P)), as an MPI library's mask loop does.
// Every algorithm exists once, as a Group method; Coll's operations are those
// over the all-ranks group.
package baseline

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/mpi"
	"srmcoll/internal/sim"
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

// The world-level operations are the Group algorithms (group.go) over the
// all-ranks group, where group index and rank coincide.

// Barrier is Group.Barrier over all ranks.
func (c *Coll) Barrier(p *sim.Proc, rank int) { c.world().Barrier(p, rank) }

// Bcast is Group.Bcast over all ranks.
func (c *Coll) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	c.world().Bcast(p, rank, buf, root)
}

// Reduce is Group.Reduce over all ranks.
func (c *Coll) Reduce(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op, root int) {
	c.world().Reduce(p, rank, send, recv, dt, op, root)
}

// Allreduce is Group.Allreduce over all ranks.
func (c *Coll) Allreduce(p *sim.Proc, rank int, send, recv []byte,
	dt dtype.Type, op dtype.Op) {
	c.world().Allreduce(p, rank, send, recv, dt, op)
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
	pool := g.c.machine().Buffers
	scratch := pool.Get(n)
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
		pool.Put(scratch)
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
		clear(recv)
	}
	pool.Put(scratch)
}

// Scan is Group.Scan over all ranks.
func (c *Coll) Scan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	c.world().Scan(p, rank, send, recv, dt, op)
}

// Exscan is Group.Exscan over all ranks.
func (c *Coll) Exscan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	c.world().Exscan(p, rank, send, recv, dt, op)
}
