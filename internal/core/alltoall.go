package core

import (
	"fmt"

	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// alltoallState implements a hierarchical all-to-all in the SRM style:
// members aggregate their outgoing blocks per destination node in shared
// memory, the masters exchange one node-to-node slab per peer (pairwise
// puts at final offsets), and members pick their incoming blocks out of
// shared memory. The network carries n*(n-1) slabs instead of the P*(P-1)
// messages of rank-pairwise exchanges.
// alltoallDirectMin is the block size above which the staged hierarchical
// exchange stops paying: the wire is bandwidth-bound either way, so blocks
// go straight into the destination user buffers (zero-copy, as in the
// Fig. 4 large-message broadcast).
const alltoallDirectMin = 2048

type alltoallState struct {
	g      *Group
	blk    int
	direct bool

	// out[x][y]: slab of blocks from node x's members to node y's members,
	// laid out [src local][dst local]. in[y][x] aliases the same buffers
	// conceptually; the put writes out[x][y] into in-place buffers owned
	// by node y.
	out [][][]byte // allocated at node x, indexed [x][y]
	in  [][][]byte // allocated at node y, indexed [y][x]

	staged []flagSet        // per node: member finished staging
	ready  []*shm.Flag      // per node: all inbound slabs landed
	arr    [][]*rma.Counter // [dst node][src node] slab arrivals

	// Direct path: per-member receive buffers and block-arrival counters.
	recvBuf    [][]byte
	registered []*sim.Event
	blkArr     []*rma.Counter
}

func newAlltoallState(g *Group, blk int) *alltoallState {
	s := g.s
	nn := len(g.lay.nodes)
	st := &alltoallState{
		g:      g,
		blk:    blk,
		out:    make([][][]byte, nn),
		in:     make([][][]byte, nn),
		staged: make([]flagSet, nn),
		ready:  make([]*shm.Flag, nn),
		arr:    make([][]*rma.Counter, nn),
	}
	st.direct = blk > alltoallDirectMin
	if st.direct {
		st.recvBuf = make([][]byte, len(g.lay.members))
		st.registered = make([]*sim.Event, len(g.lay.members))
		st.blkArr = make([]*rma.Counter, len(g.lay.members))
		for i := range g.lay.members {
			st.registered[i] = s.m.Env.NewEvent()
			st.blkArr[i] = s.counter(0, trace.ClassWaitCntr)
		}
		return st
	}
	for x, nd := range g.lay.nodes {
		st.out[x] = make([][]byte, nn)
		st.in[x] = make([][]byte, nn)
		st.arr[x] = make([]*rma.Counter, nn)
		for y := range g.lay.nodes {
			st.out[x][y] = s.slot(len(g.lay.local[x]) * len(g.lay.local[y]) * blk)
			st.in[x][y] = s.slot(len(g.lay.local[y]) * len(g.lay.local[x]) * blk)
			st.arr[x][y] = s.counter(0, trace.ClassWaitCntr)
		}
		st.staged[x] = s.flags(nd, len(g.lay.local[x]))
		st.ready[x] = s.flag(nd)
	}
	return st
}

// AlltoallT exchanges blocks between all members: member i's send holds one
// blk-byte block per member (group order), and its recv receives member
// j's block for i at group offset j. len(send) = len(recv) = Size()*blk.
// kont runs when it completes.
func (g *Group) AlltoallT(t *sim.Task, rank int, send, recv []byte, kont func()) {
	x := g.s.exec(t, kont)
	g.alltoall(x, rank, send, recv)
	x.run()
}

const (
	a2aStage = iota // staged exchange, phase 1; f.i counts nodes or peers
	a2aPut
	a2aWait
	a2aReady
	a2aPick
	a2aDirect // direct exchange; f.i counts peers
	a2aDirectWait
	a2aDirectPut
)

func (g *Group) alltoall(x *exec, rank int, send, recv []byte) {
	if len(send) != len(recv) {
		panic(fmt.Sprintf("core: Alltoall send %d / recv %d bytes", len(send), len(recv)))
	}
	if len(send)%max(g.Size(), 1) != 0 {
		panic(fmt.Sprintf("core: Alltoall buffer %d not divisible by group size %d",
			len(send), g.Size()))
	}
	blk := len(send) / g.Size()
	a := g.acquire(x, rank, func() any { return newAlltoallState(g, blk) }).(*alltoallState)
	if a.blk != blk {
		panic(fmt.Sprintf("core: Alltoall mismatch at rank %d", rank))
	}
	pc := a2aStage
	if a.direct {
		pc = a2aDirect
	}
	x.call(a, pc, 0, send, recv)
}

func (a *alltoallState) step(x *exec, f *frame) {
	g, s, nx, li, blk := a.g, a.g.s, x.nx, x.l, a.blk
	send, recv := f.a, f.c
	nn, P, gi := len(g.lay.nodes), len(g.lay.members), g.lay.index(int(x.rank))
	mine := len(g.lay.local[nx])

	switch f.pc {
	// Phase 1: stage outgoing blocks, grouped by destination node. Each
	// destination node's slab is laid out [src local][dst local], so runs
	// to the same node are coalesced into contiguous ranges per source.
	case a2aStage:
		for ; f.i < nn; f.i++ {
			dsts := g.lay.local[f.i]
			row := a.out[nx][f.i][li*len(dsts)*blk : (li+1)*len(dsts)*blk]
			if blk > 0 && len(dsts) > 0 {
				// Gather this member's blocks for the node's members into
				// its row of the slab (one contiguous copy per destination).
				for lj, dst := range dsts {
					off := g.lay.index(dst) * blk
					copy(row[lj*blk:(lj+1)*blk], send[off:off+blk])
				}
				x.chargeCopy(len(row))
				f.i++
				return
			}
		}
		x.set(&a.staged[nx][li], 1)
		f.pc = a2aReady
		if li == 0 {
			// Master: wait for local staging, exchange slabs pairwise.
			x.waitAllEQ(&a.staged[nx], 1, -1)
			f.pc, f.i = a2aPut, 1
		}
	case a2aPut:
		if d := f.i; d < nn {
			y := (nx + d) % nn
			x.put(g.master(y), a.in[y][nx], a.out[nx][y], a.arr[y][nx])
			f.i++
			return
		}
		// The node's own slab transfers through shared memory.
		a.in[nx][nx] = a.out[nx][nx]
		f.pc, f.i = a2aWait, 1
	case a2aWait:
		if d := f.i; d < nn {
			x.waitcntr(a.arr[nx][(nx+d)%nn], 1)
			f.i++
			return
		}
		x.set(a.ready[nx], 1)
		f.pc = a2aReady
	case a2aReady:
		x.waitEQ(a.ready[nx], 1)
		f.pc, f.i = a2aPick, 0
	// Phase 3: pick this member's column out of every inbound slab.
	case a2aPick:
		for ; f.i < nn; f.i++ {
			srcs := g.lay.local[f.i]
			if blk == 0 || len(srcs) == 0 {
				continue
			}
			slab := a.in[nx][f.i]
			for lj, src := range srcs {
				off := g.lay.index(src) * blk
				copy(recv[off:off+blk], slab[(lj*mine+li)*blk:(lj*mine+li+1)*blk])
			}
			x.chargeCopy(len(srcs) * blk)
			f.i++
			return
		}
		x.ret()

	// The large-block path: every member writes each outgoing block
	// straight into its destination's receive buffer — a put across nodes,
	// a shared-memory copy within one — and waits until its own P-1 inbound
	// blocks have landed.
	case a2aDirect:
		a.recvBuf[gi] = recv
		a.registered[gi].Trigger()
		// Own block stays local.
		x.memcpy(recv[gi*blk:(gi+1)*blk], send[gi*blk:(gi+1)*blk])
		f.pc, f.i = a2aDirectWait, 1
	case a2aDirectWait:
		if f.i == P {
			x.waitcntr(a.blkArr[gi], P-1)
			x.ret()
			return
		}
		x.waitEvent(a.registered[(gi+f.i)%P])
		f.pc = a2aDirectPut
	case a2aDirectPut:
		gj := (gi + f.i) % P
		target := g.lay.members[gj]
		dst, src := a.recvBuf[gj][gi*blk:(gi+1)*blk], send[gj*blk:(gj+1)*blk]
		if s.m.NodeOf(target) == int(x.node) {
			x.memcpy(dst, src)
			x.incr(a.blkArr[gj])
		} else {
			x.put(target, dst, src, a.blkArr[gj])
		}
		f.pc, f.i = a2aDirectWait, f.i+1
	}
}
