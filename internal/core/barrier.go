package core

import (
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// barrierState is the shared state of one barrier (§2.2, §2.4, and [17]):
// a flat flag barrier inside each node — one flag per participating task,
// each on its own cache line, reset by the master — and dissemination-style
// pairwise zero-byte puts between the node masters.
type barrierState struct {
	g      *Group
	nodes  []barrierNode // per participating node
	rounds int
}

// barrierNode is one node's part of a barrier: a flag a local task, and the
// node's arrival counter of each dissemination round.
type barrierNode struct {
	flags flagSet
	cnt   []rma.Counter
}

func newBarrierState(g *Group) *barrierState {
	s, nn := g.s, len(g.lay.nodes)
	b := &barrierState{g: g, nodes: make([]barrierNode, nn), rounds: tree.Log2Ceil(nn)}
	for x, nd := range g.lay.nodes {
		b.nodes[x].flags = s.flags(nd, len(g.lay.local[x]))
		b.nodes[x].cnt = s.counters(b.rounds, 0, trace.ClassWaitCntr)
	}
	return b
}

// Barrier blocks until every rank has entered the barrier.
func (s *SRM) Barrier(p *sim.Proc, rank int) {
	s.World().BarrierT(&p.Task, rank, p.Resume())
	p.Park()
}

// BarrierT is Barrier in continuation form.
func (s *SRM) BarrierT(t *sim.Task, rank int, kont func()) {
	s.World().BarrierT(t, rank, sim.Func(kont))
}

// BarrierT runs kont once every group member has entered the barrier.
func (g *Group) BarrierT(t *sim.Task, rank int, kont sim.K) {
	x := g.s.exec(t, kont)
	g.barrier(x, rank)
	x.run()
}

func (g *Group) barrier(x *exec, rank int) {
	b := g.acquire(x, rank, func() any { return newBarrierState(g) }).(*barrierState)
	x.call(b, 0, 0, nil, nil)
}

// step: pc 0 is entry; the master walks its node's flags in f.i, a wait a
// step, and counts dissemination rounds in f.k, and a round's put (pc 1) and
// its wait (pc 2) are a step each, so the put holds no queue. Every wait ends
// its step, the workers' too (pc 1 returns), so a rank waits parked.
func (b *barrierState) step(x *exec, f *frame) {
	g := b.g
	fs := b.nodes[x.nx].flags
	nn := len(g.lay.nodes)
	switch {
	case x.l != 0:
		// Check in, then wait for the master to reset the flag.
		if f.pc == 0 {
			x.set(&fs[x.l], 1)
			x.waitEQ(&fs[x.l], 0)
			f.pc = 1
			return
		}
		x.ret()
	case f.pc == 0:
		// The master first waits until all other member tasks on the node
		// check in, then joins the inter-node phase: dissemination with
		// zero-byte puts, log2(n) rounds, interrupts off for the duration
		// (§2.3).
		if x.waitAt(fs, 1, 0, true, &f.i) {
			return
		}
		if nn > 1 {
			x.interrupts(false)
		}
		f.pc = 1
	case f.pc == 2:
		x.waitcntr(&b.nodes[x.nx].cnt[f.k], 1)
		f.pc, f.k = 1, f.k+1
	case nn > 1 && int(f.k) < b.rounds:
		peer := (int(x.nx) + 1<<int(f.k)) % nn
		x.putZero(g.master(peer), &b.nodes[peer].cnt[f.k])
		f.pc = 2
	default:
		if nn > 1 {
			x.interrupts(true)
		}
		// Release the node: reset the value of all flags (§2.2).
		x.setAll(&b.nodes[x.nx].flags, 0)
		x.ret()
	}
}
