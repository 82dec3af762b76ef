package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/sim"
)

// nodeStages is the SMP machinery every allreduce family wraps around its
// inter-node exchange: the Figure-2 reduce into the node master and the
// Figure-3 broadcast of the result back out, which a node's master receives
// the result for in its smpNode's dst. Node-indexed tables use the layout's
// participating node index; the master of node index x is its first group
// member, lay.local[x][0]. As a body (pc nsReduce, f.a send, f.c recv) it is
// the complete role of a non-master task.
type nodeStages struct {
	size int
	ds   dataspec
	sp   spans // pipeline chunks of the vector

	rn    []redNode // per-node SMP reduce machinery
	nodes []smpNode // per-node SMP distribution of the result
}

func newNodeStages(g *Group, size int, ds dataspec, sp spans) nodeStages {
	s := g.s
	ns := nodeStages{size: size, ds: ds, sp: sp, rn: redNodes(g), nodes: s.smpNodes(g)}
	for x, nd := range g.lay.nodes {
		ns.rn[x].init(s, nd, 0, sp)
		ns.nodes[x].ready.Init(s.m.Env)
		ns.nodes[x].pub.init(s, nd, 0, len(g.lay.local[x]), sp.at(0).n)
	}
	return ns
}

// stages gives the allreduce prologue the stages of whichever family's
// state embeds them.
func (ns *nodeStages) stages() *nodeStages { return ns }

const (
	nsReduce = iota
	nsConsume
)

// step: workers contribute every chunk to the SMP reduce, then consume the
// distributed result.
func (ns *nodeStages) step(x *exec, f *frame) {
	switch {
	case f.pc == nsReduce:
		f.pc = nsConsume
		x.reduceWorker(&ns.rn[x.nx], f.a)
	case int(f.k) < ns.sp.len():
		c := ns.sp.at(int(f.k))
		f.k++
		x.consume(ns.nodes[x.nx].pub, int(f.k)-1, f.c[c.off:c.off+c.n])
	default:
		x.ret()
	}
}

// stage: a worker runs its part of the SMP reduce of send, then consumes
// chunk f.k-1 of the result into recv.
func (ns *nodeStages) stage(x *exec, f *frame) (stepper, []byte, []byte) {
	if f.k == 0 {
		return &ns.rn[x.nx], f.a, nil
	}
	c := ns.sp.at(int(f.k) - 1)
	return ns.nodes[x.nx].pub, f.c[c.off : c.off+c.n], nil
}

// Allreduce combines send buffers across all ranks and leaves the full
// result in every rank's recv. send and recv must not overlap and must
// have equal length.
func (s *SRM) Allreduce(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	s.World().AllreduceT(&p.Task, rank, send, recv, dt, op, p.Resume())
	p.Park()
}

// AllreduceT is Allreduce in continuation form.
func (s *SRM) AllreduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	s.World().AllreduceT(t, rank, send, recv, dt, op, sim.Func(kont))
}

// AllreduceT combines the group members' send buffers into every member's
// recv; kont runs when it completes.
func (g *Group) AllreduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont sim.K) {
	x := g.s.exec(t, kont)
	g.allreduce(x, rank, send, recv, dataspec{dt, op})
	x.run()
}

func (g *Group) allreduce(x *exec, rank int, send, recv []byte, ds dataspec) {
	if err := ds.validate(len(send)); err != nil {
		panic(err)
	}
	if len(recv) != len(send) {
		panic(fmt.Sprintf("core: Allreduce recv %d bytes, want %d", len(recv), len(send)))
	}
	// The resolver is a pure function of the size, so every rank of the
	// group dispatches the same call to the same algorithm family.
	size := len(send)
	alg := g.s.allreduceAlg(size)
	st := g.acquire(x, rank, func() any { return newAllreduceState(g, alg, size, ds) })
	a, ok := st.(interface {
		stepper
		stages() *nodeStages
	})
	if !ok || a.stages().size != size || a.stages().ds != ds {
		panic(fmt.Sprintf("core: Allreduce mismatch at rank %d", rank))
	}
	ns := a.stages()
	x.setSpec(ds)
	if x.l != 0 {
		x.call(ns, nsReduce, 0, send, recv)
		return
	}
	ns.nodes[x.nx].dst = recv
	ns.nodes[x.nx].ready.Trigger()
	if alg != AlgDualRoot {
		// The dual-root pipeline keeps interrupts enabled at every size:
		// its broadcast helper waits on counters without entering RMA calls
		// on the shared endpoint, so deferred delivery would strand its
		// arrival notifications while the reduce side blocks in non-RMA
		// waits — the same reason the one-tree pipeline, which only runs
		// above the small-message limit, never runs quiet.
		x.quietNet(size)
	}
	x.call(a, 0, 0, send, recv)
}

// newAllreduceState builds the state of an allreduce of the family alg.
func newAllreduceState(g *Group, alg Alg, size int, ds dataspec) any {
	switch {
	case alg == AlgRing:
		return newRingState(g, size, ds)
	case alg == AlgRHD:
		return newRHDState(g, size, ds)
	case alg == AlgDualRoot:
		return newPipeState(g, size, ds, 0, min(1, len(g.lay.nodes)-1))
	case size <= g.s.m.Cfg.SRMAllreduceRD:
		return newRDState(g, size, ds)
	}
	return newPipeState(g, size, ds, 0)
}

// rdState is the shared state of one allreduce of up to SRMAllreduceRD
// bytes (§2.2, §2.4): SMP reduce on each node, then an integrated pairwise
// exchange based on recursive doubling between the node masters, with extra
// nodes (beyond the largest power of two) folded in and out, then an SMP
// broadcast of the result.
// Round r's slot and arrival counter are the fold's exchange slot and counter
// of round r.
type rdState struct{ fold }

func newRDState(g *Group, size int, ds dataspec) *rdState {
	return &rdState{newFold(g, size, ds, 1, func(int) int { return size })}
}

const (
	rdWait   = fdExchange + 1 + iota // wait for round f.i's partial
	rdAbsorb                         // fold it in
)

// step is the master's role; f.i counts exchange rounds. A round's put, wait
// and fold are a step each, so neither the put nor the wait holds a queue.
func (a *rdState) step(x *exec, f *frame) {
	nx, r := int(x.nx), int(f.i)
	switch f.pc {
	case fdReduce:
		f.pc = fdFold
		if x.reduceLocal(&a.rn[nx], 0, f.c, f.a) {
			f.j = 1
		}
	case fdExchange:
		if r < a.rounds {
			partner := nx ^ (1 << r)
			x.put(x.g.master(partner), *a.slot.at(partner, 1+r), a.partial(f), &a.cn[partner][cnRound+r])
			f.pc = rdWait
			return
		}
		f.pc = fdUnfold
	case rdWait:
		x.waitcntr(&a.cn[nx][cnRound+r], 1)
		f.pc = rdAbsorb
	case rdAbsorb:
		a.absorb(x, f, *a.slot.at(nx, 1+r))
		f.pc, f.i = fdExchange, f.i+1
	default:
		a.foldStep(x, f)
	}
}

// pipeState is the shared state of one pipelined tree allreduce: the tree
// reduce fused with the tree broadcast back down the same tree, as the
// four-stage chunk pipeline of Figure 5 (SMP reduce / inter-node reduce /
// inter-node broadcast / SMP broadcast all overlapping). A master's main
// actor runs the reduce stages; a helper beside it runs the broadcast
// stages so a chunk can be broadcast while the next one is still being
// reduced.
//
// With one tree, rooted at the first participating node, this is the
// paper's allreduce above SRMAllreduceRD bytes. With two (AlgDualRoot,
// after Träff) even chunks use the first tree and odd chunks a second one
// rooted at the second node, so neither root is the bottleneck for the
// whole message and both directions of every master's links stay busy.
// Within each tree the protocol is the same: double-buffered slots keyed by
// the chunk's parity within its tree, two-deep credits from parent back to
// child, direct puts into the children's receive buffers on the broadcast
// side.
type pipeState struct {
	nodeStages
	up   treeReduce
	down treeBcast // on the helper
}

func newPipeState(g *Group, size int, ds dataspec, roots ...int) *pipeState {
	s, cfg := g.s, &g.s.m.Cfg
	// "Pipelining over the entire message range" (§2.4) keeps at least four
	// chunks in flight until the full large chunk size pays off.
	sp := alignedChunks(size, min(cfg.SRMLargeChunk, max((size+3)/4, cfg.SRMSmallChunk)), ds)
	a := &pipeState{nodeStages: newNodeStages(g, size, ds, sp)}
	nn := len(g.lay.nodes)
	helperDone := make([]sim.Event, nn)
	for x := range helperDone {
		helperDone[x].Init(s.m.Env)
	}
	kind := s.interKind("allreduce", size)
	trees := make([]pipeTree, len(roots))
	for ti, root := range roots {
		tp := &trees[ti]
		tp.emb = g.embed(kind, g.lay.local[root][0])
		tp.chunkDone = s.flag(g.lay.nodes[root])
		tp.links = make([]link, nn)
		for x := range tp.links {
			tp.links[x].carve(s, a.sp.at(0).n)
			tp.links[x].bArr = s.arrivals()
		}
	}
	a.up = treeReduce{sp: a.sp, rn: a.rn, trees: trees, done: helperDone}
	a.down = treeBcast{sp: a.sp, nodes: a.nodes, trees: trees, helper: true}
	return a
}

// step is a master's first step: it starts the broadcast helper beside it,
// then becomes the reduce side.
func (a *pipeState) step(x *exec, f *frame) {
	x.spawn(&a.down, f.c, &a.up.done[x.nx])
	f.b = &a.up
}
