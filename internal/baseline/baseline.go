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
// Every algorithm exists once, as a Group method; New returns the group of all
// ranks.
package baseline

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/mpi"
	"srmcoll/internal/ranks"
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
	return &Group{w: w, flavor: f, members: members, pos: ranks.All(len(members))}
}

// Release hands the point-to-point layer's records back to the reserve (see
// mpi.World.Release): only once the simulation ended with no rank parked in
// it, and every group carved from this one is dropped with it.
func (g *Group) Release() { g.w.Release() }

func (g *Group) machine() *machine.Machine { return g.w.Machine() }

// localCopy charges, records and makes a protocol-internal buffer copy.
func (g *Group) localCopy(p *sim.Proc, rank int, dst, src []byte) {
	g.chargeCopy(p, rank, len(src))
	copy(dst, src)
}

// chargeCopy charges and records a protocol-internal copy of n bytes whose
// bytes something else lands.
func (g *Group) chargeCopy(p *sim.Proc, rank, n int) {
	m := g.machine()
	m.ChargeCopy(p, m.NodeOf(rank), n)
	m.Stats.AddPlainCopy(n)
}

// combine charges one elementwise reduction.
func (g *Group) combine(p *sim.Proc, n, elem int) {
	m := g.machine()
	p.Sleep(m.CombineTime(n))
	m.Stats.AddReduce(n / max(1, elem))
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
		full = g.machine().Buffers.Get(len(send))
	}
	g.Reduce(p, rank, send, full, dt, op, root)
	g.Scatter(p, rank, full, recv, root)
	g.machine().Buffers.Put(full)
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
	r := g.w.Rank(rank)
	g.localCopy(p, rank, recv, send)
	// Each step receives into scratch, not by folding into recv: the bytes
	// may land while this rank's own Isend of recv is still reading it.
	pool := g.machine().Buffers
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
			g.combine(p, n, dt.Size())
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
		g.localCopy(p, rank, recv, scratch)
	} else {
		clear(recv)
	}
	pool.Put(scratch)
}
