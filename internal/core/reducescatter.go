package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// reduceScatterState implements MPI_Reduce_scatter_block in the SRM style:
// each node first reduces the full vector across its members in shared
// memory (the Figure 2 machinery), then every master sends each peer node
// its partial of that node's block range — one put per peer, placed into a
// per-source slot — and combines the inbound partials for its own range.
// Members finally copy their block out of shared memory.
type reduceScatterState struct {
	g   *Group
	blk int
	ds  dataspec
	sp  []span

	rn      []*redNode
	partial [][]byte // per node: master's full-vector local reduction
	acc     [][]byte // per node: accumulated own-range result
	slot    [][][]byte
	arr     [][]*rma.Counter // [dst node][src node]
	ready   []*shm.Flag
	offs    [][]int // per node: input-vector byte offset of each member's block
}

func newReduceScatterState(g *Group, blk int, ds dataspec) *reduceScatterState {
	s := g.s
	cfg := s.m.Cfg
	nn := len(g.lay.nodes)
	total := blk * len(g.lay.members)
	st := &reduceScatterState{
		g:       g,
		blk:     blk,
		ds:      ds,
		rn:      make([]*redNode, nn),
		partial: make([][]byte, nn),
		acc:     make([][]byte, nn),
		slot:    make([][][]byte, nn),
		arr:     make([][]*rma.Counter, nn),
		ready:   make([]*shm.Flag, nn),
		offs:    make([][]int, nn),
	}
	chunk := cfg.SRMLargeChunk
	if ds.dt.Size() > 0 {
		chunk -= chunk % ds.dt.Size()
	}
	if total <= chunk {
		chunk = max(total, 1)
	}
	st.sp = chunks(total, chunk)
	pos := make(map[int]int, len(g.lay.members))
	for i, r := range g.lay.members {
		pos[r] = i
	}
	for x, nd := range g.lay.nodes {
		st.rn[x] = s.newRedNode(nd, 0, len(g.lay.local[x]), st.sp)
		st.partial[x] = s.slot(total)
		size := blk * len(g.lay.local[x])
		st.acc[x] = s.slot(size)
		st.slot[x] = make([][]byte, nn)
		st.arr[x] = make([]*rma.Counter, nn)
		for y := 0; y < nn; y++ {
			st.slot[x][y] = s.slot(size)
			st.arr[x][y] = s.counter(0, trace.ClassWaitCntr)
		}
		st.ready[x] = s.flag(nd)
		st.offs[x] = make([]int, len(g.lay.local[x]))
		for l, r := range g.lay.local[x] {
			st.offs[x][l] = pos[r] * blk
		}
	}
	return st
}

// slabFor extracts node y's members' blocks from a full-length vector, in
// y's local-member order. Contiguous ranges (the whole-world case) are
// returned as a slice; otherwise a compacted copy is built and charged.
func (st *reduceScatterState) slabFor(x *exec, vec []byte, y int) []byte {
	offs := st.offs[y]
	if len(offs) == 0 || st.blk == 0 {
		return nil
	}
	contiguous := true
	for l := 1; l < len(offs); l++ {
		if offs[l] != offs[l-1]+st.blk {
			contiguous = false
			break
		}
	}
	if contiguous {
		return vec[offs[0] : offs[0]+len(offs)*st.blk]
	}
	slab := make([]byte, len(offs)*st.blk)
	for l, off := range offs {
		copy(slab[l*st.blk:(l+1)*st.blk], vec[off:off+st.blk])
	}
	x.chargeCopy(len(slab))
	return slab
}

// ReduceScatter combines the members' send vectors (Size()*blk bytes,
// group order) elementwise and scatters the result: the member with group
// rank i receives reduced block i in recv (MPI_Reduce_scatter_block
// semantics).
func (g *Group) ReduceScatter(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	g.ReduceScatterT(&p.Task, rank, send, recv, dt, op, p.Resume())
	p.Park()
}

// ReduceScatterT is ReduceScatter in continuation form; kont runs when it
// completes.
func (g *Group) ReduceScatterT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	x := g.s.exec(t, kont)
	g.reduceScatter(x, rank, send, recv, dataspec{dt, op})
	x.run()
}

const (
	rscWorker = iota
	rscReduce // master: f.k counts chunks of the local reduce
	rscPut    // f.i counts peer nodes
	rscFold
	rscOut
)

func (g *Group) reduceScatter(x *exec, rank int, send, recv []byte, ds dataspec) {
	if err := ds.validate(len(send)); err != nil {
		panic(err)
	}
	if len(send) != len(recv)*g.Size() {
		panic(fmt.Sprintf("core: ReduceScatter send %d bytes, want %d", len(send), len(recv)*g.Size()))
	}
	if len(recv)%ds.dt.Size() != 0 {
		panic(fmt.Sprintf("core: ReduceScatter block %d not element-aligned", len(recv)))
	}
	r := g.acquire(x, rank, func() any { return newReduceScatterState(g, len(recv), ds) }).(*reduceScatterState)
	if r.blk != len(recv) || r.ds != ds {
		panic(fmt.Sprintf("core: ReduceScatter mismatch at rank %d", rank))
	}
	x.ds = ds
	pc := rscWorker
	if x.l == 0 {
		pc = rscReduce
	}
	x.call(r, pc, 0, send, recv)
}

func (st *reduceScatterState) step(x *exec, f *frame) {
	g, nx, send, recv := st.g, x.nx, f.a, f.c
	nn := len(g.lay.nodes)
	y := (nx + f.i) % nn
	switch f.pc {
	// Phase 1: full-vector SMP reduce into the master's partial buffer.
	case rscWorker:
		f.pc = rscOut
		x.reduceWorker(st.rn[nx], send)
	case rscReduce:
		if k := f.k; k < len(st.sp) {
			c := st.sp[k]
			tchunk, own := st.partial[nx][c.off:c.off+c.n], send[c.off:c.off+c.n]
			f.k++
			if !x.reduceLocal(st.rn[nx], k, tchunk, own) && c.n > 0 {
				x.memcpy(tchunk, own) // single member node
			}
			return
		}
		// Phase 2: ship each peer node its members' blocks, combine the
		// inbound partials for this node's own blocks.
		copy(st.acc[nx], st.slabFor(x, st.partial[nx], nx))
		f.pc, f.i = rscPut, 1
	case rscPut:
		if f.i == nn {
			f.pc, f.i = rscFold, 1
			return
		}
		x.put(g.masterEp(y), st.slot[y][nx], st.slabFor(x, st.partial[nx], y), st.arr[y][nx])
		f.i++
	case rscFold:
		if f.i == nn {
			x.set(st.ready[nx], 1)
			f.pc = rscOut
			return
		}
		x.waitcntr(st.arr[nx][y], 1)
		if len(st.acc[nx]) > 0 {
			x.combine(st.acc[nx], nil, st.slot[nx][y])
		}
		f.i++
	// Phase 3: every member copies its block out of shared memory.
	case rscOut:
		x.waitEQ(st.ready[nx], 1)
		if st.blk > 0 {
			x.memcpy(recv, st.acc[nx][x.l*st.blk:(x.l+1)*st.blk])
		}
		x.ret()
	}
}
