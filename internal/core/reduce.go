package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/sim"
)

// dataspec bundles the element type and operator of a reduction.
type dataspec struct {
	dt dtype.Type
	op dtype.Op
}

func (ds dataspec) validate(n int) error {
	if !dtype.Valid(ds.op, ds.dt) {
		return fmt.Errorf("core: operator %s invalid for %s", ds.op, ds.dt)
	}
	if n%ds.dt.Size() != 0 {
		return fmt.Errorf("core: buffer of %d bytes not a multiple of %s", n, ds.dt)
	}
	return nil
}

// reduceState is the shared state of one reduce operation (§2.4): a
// binomial tree within each node and the tree reduce between the masters,
// with double buffers and chunk pipelining overlapping data movement across
// the intra- and inter-node domains. Node-indexed slices use the layout's
// participating node index.
type reduceState struct {
	treeReduce // over one tree, with no broadcast helper
	root       int
	size       int
	ds         dataspec
	partial    [][]byte // per node: master's partial-result buffer (the root's recv on its node)
}

func newReduceState(g *Group, root, size int, ds dataspec) *reduceState {
	s := g.s
	r := &reduceState{root: root, size: size, ds: ds}
	r.sp = alignedChunks(size, s.m.Cfg.SRMLargeChunk, ds)
	nn := len(g.lay.nodes)
	r.rn = redNodes(g)
	r.partial = make([][]byte, nn)
	tp := pipeTree{emb: g.embed(s.interKind("reduce", size), root), links: make([]link, nn)}
	for x, nd := range g.lay.nodes {
		r.rn[x].init(s, nd, g.lay.li(tp.emb.masters[x]), r.sp)
		if x != tp.emb.inter.Root {
			r.partial[x] = s.slot(size)
		}
		tp.links[x].carve(s, r.sp.at(0).n)
	}
	r.trees = []pipeTree{tp}
	return r
}

// Reduce combines send buffers from every rank with op over elements of dt,
// leaving the result in recv at root (recv is ignored elsewhere and may be
// nil there). send and recv must not overlap.
func (s *SRM) Reduce(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int) {
	s.World().ReduceT(&p.Task, rank, send, recv, dt, op, root, p.Resume())
	p.Park()
}

// ReduceT is Reduce in continuation form.
func (s *SRM) ReduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int, kont func()) {
	s.World().ReduceT(t, rank, send, recv, dt, op, root, sim.Func(kont))
}

// ReduceT combines the group members' send buffers into recv at root; kont
// runs when it completes.
func (g *Group) ReduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int, kont sim.K) {
	x := g.s.exec(t, kont)
	g.reduce(x, rank, send, recv, dataspec{dt, op}, root)
	x.run()
}

func (g *Group) reduce(x *exec, rank int, send, recv []byte, ds dataspec, root int) {
	if err := ds.validate(len(send)); err != nil {
		panic(err)
	}
	r := g.acquire(x, rank, func() any { return newReduceState(g, root, len(send), ds) }).(*reduceState)
	if r.root != root || r.size != len(send) || r.ds != ds {
		panic(fmt.Sprintf("core: Reduce mismatch at rank %d", rank))
	}
	x.setSpec(ds)
	if rank == root {
		if len(recv) != len(send) {
			panic(fmt.Sprintf("core: Reduce root recv %d bytes, want %d", len(recv), len(send)))
		}
		r.partial[x.nx] = recv
	}
	if rank != r.trees[0].emb.masters[x.nx] {
		x.reduceWorker(&r.rn[x.nx], send)
		return
	}
	x.quietNet(r.size)
	x.call(&r.treeReduce, trChunk, 0, send, r.partial[x.nx])
}
