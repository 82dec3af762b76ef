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
	sp  spans

	rn      []redNode
	partial [][]byte        // per node: master's full-vector local reduction
	acc     [][]byte        // per node: accumulated own-range result
	slot    grid[[]byte]    // [dst node][src node]
	arr     [][]rma.Counter // [dst node][src node]
	ready   []*shm.Flag
}

func newReduceScatterState(g *Group, blk int, ds dataspec) *reduceScatterState {
	s := g.s
	nn := len(g.lay.nodes)
	total := blk * len(g.lay.members)
	st := &reduceScatterState{
		g:       g,
		blk:     blk,
		ds:      ds,
		rn:      redNodes(g),
		partial: make([][]byte, nn),
		acc:     make([][]byte, nn),
		slot:    newGrid[[]byte](nn, nn),
		arr:     make([][]rma.Counter, nn),
		ready:   make([]*shm.Flag, nn),
	}
	st.sp = alignedChunks(total, s.m.Cfg.SRMLargeChunk, ds)
	for x, nd := range g.lay.nodes {
		st.rn[x].init(s, nd, 0, st.sp)
		st.partial[x] = s.slot(total)
		size := blk * len(g.lay.local[x])
		st.acc[x] = s.slot(size)
		st.arr[x] = s.counters(nn, 0, trace.ClassWaitCntr)
		for y := 0; y < nn; y++ {
			*st.slot.at(x, y) = s.slot(size)
		}
		st.ready[x] = s.flag(nd)
	}
	return st
}

// slabFor extracts node y's members' blocks from a full-length vector, in
// y's local-member order. Contiguous ranges (the whole-world case) are
// returned as a slice; otherwise a compacted copy is built and charged.
func (st *reduceScatterState) slabFor(x *exec, vec []byte, y int) []byte {
	lay, members, blk := &st.g.lay, st.g.lay.local[y], st.blk
	if len(members) == 0 || blk == 0 {
		return nil
	}
	first, contiguous := lay.index(members[0]), true
	for l, r := range members {
		contiguous = contiguous && lay.index(r) == first+l
	}
	if contiguous {
		return vec[first*blk : (first+len(members))*blk]
	}
	slab := make([]byte, len(members)*blk)
	for l, r := range members {
		off := lay.index(r) * blk
		copy(slab[l*blk:(l+1)*blk], vec[off:off+blk])
	}
	x.chargeCopy(len(slab))
	return slab
}

// ReduceScatterT combines the members' send vectors (Size()*blk bytes,
// group order) elementwise and scatters the result: the member with group
// rank i receives reduced block i in recv (MPI_Reduce_scatter_block
// semantics). kont runs when it completes.
func (g *Group) ReduceScatterT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont sim.K) {
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
	x.setSpec(ds)
	pc := rscWorker
	if x.l == 0 {
		pc = rscReduce
	}
	x.call(r, pc, 0, send, recv)
}

func (st *reduceScatterState) step(x *exec, f *frame) {
	g, nx, send, recv := st.g, int(x.nx), f.a, f.c
	nn := len(g.lay.nodes)
	y := (nx + int(f.i)) % nn
	switch f.pc {
	// Phase 1: full-vector SMP reduce into the master's partial buffer.
	case rscWorker:
		f.pc = rscOut
		x.reduceWorker(&st.rn[nx], send)
	case rscReduce:
		if k := int(f.k); k < st.sp.len() {
			c := st.sp.at(k)
			tchunk, own := st.partial[nx][c.off:c.off+c.n], send[c.off:c.off+c.n]
			f.k++
			x.reduceInto(&st.rn[nx], k, tchunk, own)
			return
		}
		// Phase 2: ship each peer node its members' blocks, combine the
		// inbound partials for this node's own blocks.
		copy(st.acc[nx], st.slabFor(x, st.partial[nx], nx))
		f.pc, f.i = rscPut, 1
	case rscPut:
		if int(f.i) == nn {
			f.pc, f.i = rscFold, 1
			return
		}
		x.put(g.master(y), *st.slot.at(y, nx), st.slabFor(x, st.partial[nx], y), &st.arr[y][nx])
		f.i++
	case rscFold:
		if int(f.i) == nn {
			x.set(st.ready[nx], 1)
			f.pc = rscOut
			return
		}
		x.waitcntr(&st.arr[nx][y], 1)
		if len(st.acc[nx]) > 0 {
			x.combine(st.acc[nx], nil, *st.slot.at(nx, y))
		}
		f.i++
	// Phase 3: every member copies its block out of shared memory.
	case rscOut:
		x.waitEQ(st.ready[nx], 1)
		if st.blk > 0 {
			x.memcpy(recv, st.acc[nx][int(x.l)*st.blk:(int(x.l)+1)*st.blk])
		}
		x.ret()
	}
}
