package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
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
// binomial tree within each node and between the masters, with double
// buffers and chunk pipelining overlapping data movement across the
// intra- and inter-node domains. Node-indexed slices use the layout's
// participating node index.
type reduceState struct {
	g    *Group
	root int
	size int
	ds   dataspec
	emb  gEmbed
	sp   []span

	rn      []*redNode // per-node SMP reduce machinery
	partial [][]byte   // per node: master's partial-result buffer (the root's recv on its node)

	// Inter-node: the parent holds two chunk slots per child; the child
	// holds a credit counter (initially 2) replenished by zero-byte puts.
	pslot  [][2][]byte       // indexed by child node, allocated at its parent
	arr    [][2]*rma.Counter // per-parity chunk arrivals from child node, at the parent
	credit []*rma.Counter    // free slots for child node's puts, at the child
}

func newReduceState(g *Group, root, size int, ds dataspec) *reduceState {
	s := g.s
	cfg := s.m.Cfg
	r := &reduceState{
		g:    g,
		root: root,
		size: size,
		ds:   ds,
		emb:  g.embed(s.interKind("reduce", size), root),
	}
	chunk := cfg.SRMLargeChunk
	if ds.dt.Size() > 0 {
		chunk -= chunk % ds.dt.Size() // keep chunks element-aligned
	}
	if size <= chunk {
		chunk = max(size, 1)
	}
	r.sp = chunks(size, chunk)
	nn := len(g.lay.nodes)
	r.rn = make([]*redNode, nn)
	r.partial = make([][]byte, nn)
	r.pslot = make([][2][]byte, nn)
	r.arr = make([][2]*rma.Counter, nn)
	r.credit = make([]*rma.Counter, nn)
	chunkBytes := r.sp[0].n
	for x, nd := range g.lay.nodes {
		r.rn[x] = s.newRedNode(nd, g.lay.li(r.emb.masters[x]), len(g.lay.local[x]), r.sp)
		if x != r.emb.inter.Root {
			r.partial[x] = s.slot(size)
		}
		r.pslot[x] = [2][]byte{s.slot(chunkBytes), s.slot(chunkBytes)}
		r.arr[x] = [2]*rma.Counter{
			s.counter(0, trace.ClassWaitArrive),
			s.counter(0, trace.ClassWaitArrive),
		}
		r.credit[x] = s.counter(2, trace.ClassWaitCredit)
	}
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
	s.World().ReduceT(t, rank, send, recv, dt, op, root, kont)
}

// ReduceT combines the group members' send buffers into recv at root; kont
// runs when it completes.
func (g *Group) ReduceT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, root int, kont func()) {
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
	x.ds = ds
	if rank == root {
		if len(recv) != len(send) {
			panic(fmt.Sprintf("core: Reduce root recv %d bytes, want %d", len(recv), len(send)))
		}
		r.partial[x.nx] = recv
	}
	if rank != r.emb.masters[x.nx] {
		x.reduceWorker(r.rn[x.nx], send)
		return
	}
	x.quietNet(r.size)
	x.call(r, 0, 0, send, nil)
}

// step runs the node master: combine local children, combine arriving
// child-node partials, and either forward the chunk to the parent master or
// finish it into the root's receive buffer — all pipelined over chunks.
// pc 0 is the top of the chunk loop, pc 1 the rest of chunk f.k with f.i
// counting child nodes; f.j records that the chunk has a local partial.
func (r *reduceState) step(x *exec, f *frame) {
	g, nx, k := r.g, x.nx, f.k
	if k == len(r.sp) {
		x.ret()
		return
	}
	c := r.sp[k]
	tchunk := r.partial[nx][c.off : c.off+c.n]
	own := f.a[c.off : c.off+c.n]
	if f.pc == 0 {
		f.pc, f.i, f.j = 1, 0, 0
		if x.reduceLocal(r.rn[nx], k, tchunk, own) {
			f.j = 1
		}
		return
	}
	have := f.j != 0 || f.i > 0
	if interKids := r.emb.inter.Children[nx]; f.i < len(interKids) {
		child := interKids[f.i]
		f.i++
		x.waitcntr(r.arr[child][k%2], 1)
		if c.n > 0 {
			if have {
				own = nil
			}
			x.combine(tchunk, own, r.pslot[child][k%2][:c.n])
		}
		// Replenish the child's slot credit — only needed while a chunk
		// k+2 remains to reuse this slot parity.
		if k+2 < len(r.sp) {
			x.putZero(g.s.dom.Endpoint(r.emb.masters[child]), r.credit[child])
		}
		return
	}
	switch {
	case nx != r.emb.inter.Root:
		// Forward the chunk partial to the parent's slot for this node.
		src := tchunk
		if !have {
			src = own // single-task leaf node: send straight from the user buffer
		}
		x.waitcntr(r.credit[nx], 1)
		parent := g.s.dom.Endpoint(r.emb.masters[r.emb.inter.Parent[nx]])
		x.put(parent, r.pslot[nx][k%2][:c.n], src, r.arr[nx][k%2])
	case !have && c.n > 0:
		// Reduce over a single task: the result is a plain copy.
		x.memcpy(tchunk, own)
	}
	f.pc, f.k = 0, k+1
}
