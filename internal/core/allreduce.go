package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// nodeStages is the SMP machinery every allreduce family wraps around its
// inter-node exchange: the Figure-2 reduce into the node master and the
// Figure-3 broadcast of the result back out. Node-indexed slices use the
// layout's participating node index; the master of node index x is its
// first group member, lay.local[x][0]. As a body (pc nsReduce, f.a send,
// f.c recv) it is the complete role of a non-master task.
type nodeStages struct {
	size int
	ds   dataspec
	sp   []span // pipeline chunks of the vector

	rn       []*redNode   // per-node SMP reduce machinery
	resBuf   [][]byte     // per node: master's receive buffer (the result lands here)
	resReady []*sim.Event // per node: resBuf registered
	pub      []publisher  // per-node SMP distribution of the result
}

func newNodeStages(g *Group, size int, ds dataspec, sp []span) nodeStages {
	nn := len(g.lay.nodes)
	ns := nodeStages{
		size: size, ds: ds, sp: sp,
		rn:       make([]*redNode, nn),
		resBuf:   make([][]byte, nn),
		resReady: make([]*sim.Event, nn),
		pub:      make([]publisher, nn),
	}
	for x, nd := range g.lay.nodes {
		ns.rn[x] = g.s.newRedNode(nd, 0, len(g.lay.local[x]), sp)
		ns.resReady[x] = g.s.m.Env.NewEvent()
		ns.pub[x] = g.s.newPublisher(nd, 0, len(g.lay.local[x]), sp[0].n)
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
		x.reduceWorker(ns.rn[x.nx], f.a)
	case f.k < len(ns.sp):
		c := ns.sp[f.k]
		f.k++
		x.consume(ns.pub[x.nx], f.k-1, f.c[c.off:c.off+c.n])
	default:
		x.ret()
	}
}

// pipeChunks cuts a vector into the chunks of the Figure-5 pipeline:
// "pipelining over the entire message range" (§2.4) keeps at least four
// chunks in flight until the full large chunk size pays off.
func pipeChunks(g *Group, size int, ds dataspec) []span {
	cfg := g.s.m.Cfg
	chunk := min(cfg.SRMLargeChunk, max((size+3)/4, cfg.SRMSmallChunk))
	if ds.dt.Size() > 0 {
		chunk -= chunk % ds.dt.Size()
	}
	return chunks(size, max(chunk, 1))
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
	s.World().AllreduceT(t, rank, send, recv, dt, op, kont)
}

// AllreduceT combines the group members' send buffers into every member's
// recv; kont runs when it completes.
func (g *Group) AllreduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
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
	size, nn := len(send), len(g.lay.nodes)
	alg := g.s.allreduceAlg(size)
	st := g.acquire(x, rank, func() any {
		switch {
		case alg == AlgRing:
			return newRingState(g, size, ds)
		case alg == AlgRHD:
			return newRHDState(g, size, ds)
		case alg == AlgDualRoot:
			return newPipeState(g, size, ds, 0, min(1, nn-1))
		case size <= g.s.m.Cfg.SRMAllreduceRD:
			return newRDState(g, size, ds)
		}
		return newPipeState(g, size, ds, 0)
	})
	a, ok := st.(interface {
		stepper
		stages() *nodeStages
	})
	if !ok || a.stages().size != size || a.stages().ds != ds {
		panic(fmt.Sprintf("core: Allreduce mismatch at rank %d", rank))
	}
	ns := a.stages()
	x.ds = ds
	if x.l != 0 {
		x.call(ns, nsReduce, 0, send, recv)
		return
	}
	ns.resBuf[x.nx] = recv
	ns.resReady[x.nx].Trigger()
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

// rdState is the shared state of one allreduce of up to SRMAllreduceRD
// bytes (§2.2, §2.4): SMP reduce on each node, then an integrated pairwise
// exchange based on recursive doubling between the node masters, with extra
// nodes (beyond the largest power of two) folded in and out, then an SMP
// broadcast of the result.
type rdState struct {
	nodeStages
	g        *Group
	pow      int
	foldSlot [][]byte
	foldArr  []*rma.Counter
	rdSlot   [][][]byte // [node][round]
	rdArr    [][]*rma.Counter
	resArr   []*rma.Counter // result landed back at an extra node
}

func newRDState(g *Group, size int, ds dataspec) *rdState {
	s := g.s
	a := &rdState{g: g, nodeStages: newNodeStages(g, size, ds, chunks(size, max(size, 1)))}
	nn := len(g.lay.nodes)
	a.pow = 1
	for a.pow*2 <= nn {
		a.pow *= 2
	}
	rounds := tree.Log2Ceil(a.pow)
	a.foldSlot = make([][]byte, nn)
	a.foldArr = make([]*rma.Counter, nn)
	a.rdSlot = make([][][]byte, nn)
	a.rdArr = make([][]*rma.Counter, nn)
	a.resArr = make([]*rma.Counter, nn)
	for x := 0; x < nn; x++ {
		a.foldSlot[x] = s.slot(size)
		a.foldArr[x] = s.counter(0, trace.ClassWaitArrive)
		a.resArr[x] = s.counter(0, trace.ClassWaitArrive)
		a.rdSlot[x] = make([][]byte, rounds)
		a.rdArr[x] = make([]*rma.Counter, rounds)
		for r := 0; r < rounds; r++ {
			a.rdSlot[x][r] = s.slot(size)
			a.rdArr[x][r] = s.counter(0, trace.ClassWaitArrive)
		}
	}
	return a
}

const (
	rdReduce = iota
	rdFold
	rdRounds // f.i counts exchange rounds
	rdUnfold
	rdPublish
	rdDone
)

// step is the master's role; f.j records that recv holds a partial (until
// then the node's contribution is send itself).
func (a *rdState) step(x *exec, f *frame) {
	g, nx, send, recv := a.g, x.nx, f.a, f.c
	nn := len(g.lay.nodes)
	cur := func() []byte {
		if f.j != 0 {
			return recv
		}
		return send
	}
	combine := func(src []byte) {
		if a.size > 0 {
			own := send
			if f.j != 0 {
				own = nil
			}
			x.combine(recv, own, src)
		}
		f.j = 1
	}
	switch f.pc {
	case rdReduce:
		f.pc = rdFold
		if x.reduceLocal(a.rn[nx], 0, recv, send) {
			f.j = 1
		}
	case rdFold:
		if nx >= a.pow {
			// Fold out: hand the node partial to the peer, then receive the
			// final result straight into recv.
			peer := nx - a.pow
			x.put(g.masterEp(peer), a.foldSlot[peer], cur(), a.foldArr[peer])
			x.waitcntr(a.resArr[nx], 1)
			f.pc = rdPublish
			return
		}
		if nx+a.pow < nn {
			x.waitcntr(a.foldArr[nx], 1)
			combine(a.foldSlot[nx])
		}
		f.pc = rdRounds
	case rdRounds:
		if r := f.i; r < len(a.rdArr[nx]) {
			partner := nx ^ (1 << r)
			x.put(g.masterEp(partner), a.rdSlot[partner][r], cur(), a.rdArr[partner][r])
			x.waitcntr(a.rdArr[nx][r], 1)
			combine(a.rdSlot[nx][r])
			f.i++
			return
		}
		f.pc = rdUnfold
		if nx+a.pow < nn {
			x.waitEvent(a.resReady[nx+a.pow])
		}
	case rdUnfold:
		if extra := nx + a.pow; extra < nn {
			// Return the full result to the folded-out node's recv buffer.
			x.put(g.masterEp(extra), a.resBuf[extra], cur(), a.resArr[extra])
		}
		if f.j == 0 && a.size > 0 {
			x.memcpy(recv, send) // single node, single task
		}
		f.pc = rdPublish
	case rdPublish:
		f.pc = rdDone
		x.publish(a.pub[nx], 0, recv, false)
	case rdDone:
		a.pub[nx].waitConsumed(x, 0)
		x.ret()
	}
}

// pipeState is the shared state of one pipelined tree allreduce: reduce up
// a tree of node masters fused with the broadcast back down it, as the
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
	g          *Group
	trees      []pipeTree
	helperDone []*sim.Event
}

type pipeTree struct {
	emb       gEmbed
	pslot     [][2][]byte       // indexed by child node, allocated at its parent
	arr       [][2]*rma.Counter // per-parity chunk arrivals from child node, at the parent
	credit    []*rma.Counter    // free slots for child node's puts, at the child
	bArr      [][2]*rma.Counter // per-parity result chunks landed, at the child
	chunkDone *shm.Flag         // at the root master: chunks fully reduced
}

func newPipeState(g *Group, size int, ds dataspec, roots ...int) *pipeState {
	s := g.s
	a := &pipeState{g: g, nodeStages: newNodeStages(g, size, ds, pipeChunks(g, size, ds))}
	nn := len(g.lay.nodes)
	a.helperDone = make([]*sim.Event, nn)
	for x := range a.helperDone {
		a.helperDone[x] = s.m.Env.NewEvent()
	}
	arrivals := func() [2]*rma.Counter {
		return [2]*rma.Counter{
			s.counter(0, trace.ClassWaitArrive),
			s.counter(0, trace.ClassWaitArrive),
		}
	}
	kind := s.interKind("allreduce", size)
	a.trees = make([]pipeTree, len(roots))
	for ti, root := range roots {
		tp := &a.trees[ti]
		tp.emb = g.embed(kind, g.lay.local[root][0])
		tp.chunkDone = s.flag(g.lay.nodes[root])
		tp.pslot = make([][2][]byte, nn)
		tp.arr = make([][2]*rma.Counter, nn)
		tp.credit = make([]*rma.Counter, nn)
		tp.bArr = make([][2]*rma.Counter, nn)
		for x := 0; x < nn; x++ {
			tp.pslot[x] = [2][]byte{s.slot(a.sp[0].n), s.slot(a.sp[0].n)}
			tp.arr[x] = arrivals()
			tp.credit[x] = s.counter(2, trace.ClassWaitCredit)
			tp.bArr[x] = arrivals()
		}
	}
	return a
}

const (
	ppStart  = iota
	ppReduce // reduce side: top of the chunk loop
	ppUp     // f.i counts child nodes; f.j records a local partial
	ppBcast  // broadcast side (helper): top of the chunk loop
	ppDown
	ppDownPut
)

// step walks chunks in global order; chunk k belongs to tree k%nt and is
// the (k/nt)-th chunk of that tree.
func (a *pipeState) step(x *exec, f *frame) {
	g, nx, send, recv, k := a.g, x.nx, f.a, f.c, f.k
	if k == len(a.sp) {
		if f.pc == ppReduce {
			x.waitEvent(a.helperDone[nx])
		} else {
			a.pub[nx].waitConsumed(x, k-1)
		}
		x.ret()
		return
	}
	nt := len(a.trees)
	tp, idx := &a.trees[k%nt], k/nt
	par := idx % 2
	kids := tp.emb.inter.Children[nx]
	atRoot := nx == tp.emb.inter.Root
	c := a.sp[k]
	tchunk, own := recv[c.off:c.off+c.n], send[c.off:c.off+c.n]

	switch f.pc {
	case ppStart:
		x.spawn(a, ppBcast, send, recv, a.helperDone[nx])
		f.pc = ppReduce
	case ppReduce:
		f.pc, f.i, f.j = ppUp, 0, 0
		if x.reduceLocal(a.rn[nx], k, tchunk, own) {
			f.j = 1
		}
	case ppUp:
		have := f.j != 0 || f.i > 0
		if f.i < len(kids) {
			child := kids[f.i]
			f.i++
			x.waitcntr(tp.arr[child][par], 1)
			if c.n > 0 {
				if have {
					own = nil
				}
				x.combine(tchunk, own, tp.pslot[child][par][:c.n])
			}
			// The child's next send in this tree is chunk k+nt; returning
			// this credit enables the one after that.
			if k+2*nt < len(a.sp) {
				x.putZero(g.masterEp(child), tp.credit[child])
			}
			return
		}
		if !atRoot {
			src := tchunk
			if !have {
				src = own
			}
			x.waitcntr(tp.credit[nx], 1)
			x.put(g.masterEp(tp.emb.inter.Parent[nx]), tp.pslot[nx][par][:c.n], src, tp.arr[nx][par])
		} else {
			if !have && c.n > 0 {
				x.memcpy(tchunk, own)
			}
			x.set(tp.chunkDone, idx+1)
		}
		f.pc, f.k = ppReduce, k+1

	case ppBcast:
		if atRoot {
			x.waitGE(tp.chunkDone, idx+1)
		} else {
			x.waitValue(tp.bArr[nx][par], 1)
		}
		f.pc, f.i = ppDown, 0
	case ppDown:
		if f.i < len(kids) {
			x.waitEvent(a.resReady[kids[f.i]])
			f.pc = ppDownPut
			return
		}
		f.pc, f.k = ppBcast, k+1
		x.publish(a.pub[nx], k, tchunk, false)
	case ppDownPut:
		child := kids[f.i]
		x.put(g.masterEp(child), a.resBuf[child][c.off:c.off+c.n], tchunk, tp.bArr[child][par])
		f.pc, f.i = ppDown, f.i+1
	}
}
