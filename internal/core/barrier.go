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
	flags  []flagSet        // per participating node
	cnt    [][]*rma.Counter // [node index][round]
	rounds int
}

func newBarrierState(g *Group) *barrierState {
	nn := len(g.lay.nodes)
	b := &barrierState{
		g:      g,
		flags:  make([]flagSet, nn),
		cnt:    make([][]*rma.Counter, nn),
		rounds: tree.Log2Ceil(nn),
	}
	for x, nd := range g.lay.nodes {
		b.flags[x] = g.s.flags(nd, len(g.lay.local[x]))
		b.cnt[x] = make([]*rma.Counter, b.rounds)
		for r := range b.cnt[x] {
			b.cnt[x][r] = g.s.counter(0, trace.ClassWaitCntr)
		}
	}
	return b
}

// Barrier blocks until every rank has entered the barrier.
func (s *SRM) Barrier(p *sim.Proc, rank int) { s.World().Barrier(p, rank) }

// BarrierT is Barrier in continuation form.
func (s *SRM) BarrierT(t *sim.Task, rank int, kont func()) { s.World().BarrierT(t, rank, kont) }

// Barrier blocks until every group member has entered the barrier.
func (g *Group) Barrier(p *sim.Proc, rank int) {
	g.BarrierT(&p.Task, rank, p.Resume())
	p.Park()
}

// BarrierT runs kont once every group member has entered the barrier.
func (g *Group) BarrierT(t *sim.Task, rank int, kont func()) {
	x := g.s.exec(t, kont)
	g.barrier(x, rank)
	x.run()
}

func (g *Group) barrier(x *exec, rank int) {
	b := g.acquire(x, rank, func() any { return newBarrierState(g) }).(*barrierState)
	x.call(b, 0, 0, nil, nil)
}

// step: pc 0 is entry; the master counts dissemination rounds in f.k.
func (b *barrierState) step(x *exec, f *frame) {
	g := b.g
	fs := b.flags[x.nx]
	nn := len(g.lay.nodes)
	switch {
	case x.l != 0:
		// Check in, then wait for the master to reset the flag.
		x.set(&fs[x.l], 1)
		x.waitEQ(&fs[x.l], 0)
		x.ret()
	case f.pc == 0:
		// The master first waits until all other member tasks on the node
		// check in, then joins the inter-node phase: dissemination with
		// zero-byte puts, log2(n) rounds, interrupts off for the duration
		// (§2.3).
		x.waitAllEQ(&b.flags[x.nx], 1, 0)
		if nn > 1 {
			x.interrupts(false)
		}
		f.pc = 1
	case nn > 1 && f.k < b.rounds:
		peer := (x.nx + 1<<f.k) % nn
		x.putZero(g.masterEp(peer), b.cnt[peer][f.k])
		x.waitcntr(b.cnt[x.nx][f.k], 1)
		f.k++
	default:
		if nn > 1 {
			x.interrupts(true)
		}
		// Release the node: reset the value of all flags (§2.2).
		x.setAll(&b.flags[x.nx], 0)
		x.ret()
	}
}
