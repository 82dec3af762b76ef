package core

import (
	"fmt"

	"srmcoll/internal/check"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// This file extends the paper's operation set with the remaining common
// collectives — gather, scatter and allgather — built in the same SRM
// style: blocks stage through per-node shared memory, and the network sees
// one put per contiguous slab placed directly at its final offset (the
// Fig. 4 large-message idea applied to rooted data redistribution).

// run is a maximal set of group members that are consecutive in group-rank
// order and live on the same node, so their blocks form one contiguous
// slab both in the gathered vector and in the node staging buffer.
type run struct {
	node  int // participating node index
	first int // first group rank of the run
	count int // members in the run
	lofff int // first member's index within the node member list
}

// runsOf splits the group into contiguous same-node runs. For the
// whole-world layout this yields exactly one run per node.
func runsOf(lay *layout) []run {
	var out []run
	for i := 0; i < len(lay.members); {
		r := lay.members[i]
		x := lay.ni(r)
		rn := run{node: x, first: i, count: 1, lofff: lay.li(r)}
		for i+rn.count < len(lay.members) {
			next := lay.members[i+rn.count]
			if lay.ni(next) != x || lay.li(next) != rn.lofff+rn.count {
				break
			}
			rn.count++
		}
		out = append(out, rn)
		i += rn.count
	}
	return out
}

// allgatherDirectMin is the per-member block size above which allgather
// skips the shared-memory staging: blocks ride a member ring of direct
// puts into the destination receive buffers (zero-copy), since staging
// only pays when aggregation amortizes per-message costs.
const allgatherDirectMin = 16 << 10

// redistState is the shared state of one gather, scatter or allgather.
type redistState struct {
	g    *Group
	kind string // "gather", "scatter", "allgather"
	root int    // member rank (unused by allgather)
	blk  int    // bytes contributed by / delivered to each member

	masters []int
	runs    []run
	staged  [][]byte         // per node: slab staging in shared memory
	inFlag  []flagSet        // per node: member block staged (gather/allgather)
	ready   []*shm.Flag      // per node: staging complete, members may copy out
	arr     []*rma.Counter   // per node master: slabs arrived (gather/scatter)
	stepArr [][]*rma.Counter // allgather: per node, per ring step
	rootBuf []byte           // gather: root's recv; set at entry
	rootSet *sim.Event

	// Direct allgather ring (large blocks).
	direct     bool
	recvBuf    [][]byte
	registered []*sim.Event
	stepCnt    [][]*rma.Counter // [member][step]
}

func newRedistState(g *Group, kind string, root, blk int) *redistState {
	s := g.s
	st := &redistState{
		g:       g,
		kind:    kind,
		root:    root,
		blk:     blk,
		runs:    runsOf(&g.lay),
		masters: make([]int, len(g.lay.nodes)),
		staged:  make([][]byte, len(g.lay.nodes)),
		inFlag:  make([]flagSet, len(g.lay.nodes)),
		ready:   make([]*shm.Flag, len(g.lay.nodes)),
		arr:     make([]*rma.Counter, len(g.lay.nodes)),
		rootSet: s.m.Env.NewEvent(),
	}
	rootNI := -1
	if kind != "allgather" {
		rootNI = g.lay.ni(root)
	}
	if kind == "allgather" && blk > allgatherDirectMin {
		st.direct = true
		P := len(g.lay.members)
		st.recvBuf = make([][]byte, P)
		st.registered = make([]*sim.Event, P)
		st.stepCnt = make([][]*rma.Counter, P)
		for i := 0; i < P; i++ {
			st.registered[i] = s.m.Env.NewEvent()
			st.stepCnt[i] = make([]*rma.Counter, P)
			for j := range st.stepCnt[i] {
				st.stepCnt[i][j] = s.counter(0, trace.ClassWaitCntr)
			}
		}
		return st
	}
	total := blk * len(g.lay.members)
	for x, nd := range g.lay.nodes {
		if x == rootNI {
			st.masters[x] = root
		} else {
			st.masters[x] = g.lay.local[x][0]
		}
		size := blk * len(g.lay.local[x])
		if kind == "allgather" {
			size = total
		}
		st.staged[x] = s.slot(size)
		st.inFlag[x] = s.flags(nd, len(g.lay.local[x]))
		st.ready[x] = s.flag(nd)
		st.arr[x] = s.counter(0, trace.ClassWaitCntr)
	}
	if kind == "allgather" {
		st.stepArr = make([][]*rma.Counter, len(g.lay.nodes))
		for x := range st.stepArr {
			st.stepArr[x] = make([]*rma.Counter, len(g.lay.nodes))
			for i := range st.stepArr[x] {
				st.stepArr[x][i] = s.counter(0, trace.ClassWaitCntr)
			}
		}
	}
	return st
}

// groupRank returns a member's group rank (its block index).
func (g *Group) groupRank(rank int) int {
	for i, r := range g.lay.members {
		if r == rank {
			return i
		}
	}
	panic("core: rank not in group")
}

// slabRange returns the staging range of a run within its node buffer
// (member-list order) and its range in the gathered vector.
func (st *redistState) slabRange(rn run) (stagedOff, groupOff, n int) {
	return rn.lofff * st.blk, rn.first * st.blk, rn.count * st.blk
}

// Gather collects each member's send block (blk = len(send) bytes, equal
// everywhere) into recv at root, ordered by group rank. recv must hold
// Size()*blk bytes at root and is ignored elsewhere.
func (g *Group) Gather(p *sim.Proc, rank int, send, recv []byte, root int) {
	g.GatherT(&p.Task, rank, send, recv, root, p.Resume())
	p.Park()
}

// GatherT is Gather in continuation form; kont runs when it completes.
func (g *Group) GatherT(t *sim.Task, rank int, send, recv []byte, root int, kont func()) {
	x := g.s.exec(t, kont)
	g.gather(x, rank, send, recv, root)
	x.run()
}

// Scatter distributes root's send buffer (Size()*blk bytes, ordered by
// group rank) so each member receives its blk-byte block in recv. send is
// ignored away from root.
func (g *Group) Scatter(p *sim.Proc, rank int, send, recv []byte, root int) {
	g.ScatterT(&p.Task, rank, send, recv, root, p.Resume())
	p.Park()
}

// ScatterT is Scatter in continuation form; kont runs when it completes.
func (g *Group) ScatterT(t *sim.Task, rank int, send, recv []byte, root int, kont func()) {
	x := g.s.exec(t, kont)
	g.scatter(x, rank, send, recv, root)
	x.run()
}

// Allgather concatenates every member's send block into every member's
// recv (Size()*blk bytes), ordered by group rank: an intra-node staging
// phase, a slab ring between the node masters, and a node-local fan-out.
func (g *Group) Allgather(p *sim.Proc, rank int, send, recv []byte) {
	g.AllgatherT(&p.Task, rank, send, recv, p.Resume())
	p.Park()
}

// AllgatherT is Allgather in continuation form; kont runs when it completes.
func (g *Group) AllgatherT(t *sim.Task, rank int, send, recv []byte, kont func()) {
	x := g.s.exec(t, kont)
	g.allgather(x, rank, send, recv)
	x.run()
}

// Entry pcs of the redistState body, one per operation; the pcs after an
// entry are that operation's later stages. f.a is send, f.c recv.
const (
	rsGather = iota
	rsGatherSlabs
	rsScatter
	rsScatterSlabs
	rsScatterOut
	rsAllgather
	rsAllgatherRing
	rsAllgatherFan
	rsDirect
	rsDirectRing
)

func (g *Group) gather(x *exec, rank int, send, recv []byte, root int) {
	r := g.acquire(x, rank, func() any { return newRedistState(g, "gather", root, len(send)) }).(*redistState)
	if r.kind != "gather" || r.root != root || r.blk != len(send) {
		panic(fmt.Sprintf("core: Gather mismatch at rank %d", rank))
	}
	if rank == root {
		check.Size("core.Gather", rank, "recv", len(recv), r.blk*g.Size())
		r.rootBuf = recv
		r.rootSet.Trigger()
	}
	x.call(r, rsGather, 0, send, recv)
}

func (g *Group) scatter(x *exec, rank int, send, recv []byte, root int) {
	r := g.acquire(x, rank, func() any { return newRedistState(g, "scatter", root, len(recv)) }).(*redistState)
	if r.kind != "scatter" || r.root != root || r.blk != len(recv) {
		panic(fmt.Sprintf("core: Scatter mismatch at rank %d", rank))
	}
	if rank == root {
		check.Size("core.Scatter", rank, "send", len(send), r.blk*g.Size())
	}
	x.call(r, rsScatter, 0, send, recv)
}

func (g *Group) allgather(x *exec, rank int, send, recv []byte) {
	r := g.acquire(x, rank, func() any { return newRedistState(g, "allgather", g.lay.members[0], len(send)) }).(*redistState)
	if r.kind != "allgather" || r.blk != len(send) {
		panic(fmt.Sprintf("core: Allgather mismatch at rank %d", rank))
	}
	check.Size("core.Allgather", rank, "recv", len(recv), r.blk*g.Size())
	pc := rsAllgather
	if r.direct {
		pc = rsDirect
	}
	x.call(r, pc, g.groupRank(rank), send, recv)
}

func (st *redistState) step(x *exec, f *frame) {
	g, s, rank, nx, l, blk := st.g, st.g.s, x.rank, x.nx, x.l, st.blk
	send, recv := f.a, f.c
	nn := len(g.lay.nodes)
	master := rank == st.masters[nx]
	rootNI := g.lay.ni(st.root)
	masterEp := func(y int) *rma.Endpoint { return s.dom.Endpoint(st.masters[y]) }
	// runsOn counts the slabs node y's members form; each travels as one put.
	runsOn := func(y int) (n int) {
		for _, rn := range st.runs {
			if rn.node == y {
				n++
			}
		}
		return n
	}

	switch f.pc {
	case rsGather:
		// Every member stages its block in node shared memory.
		if blk > 0 {
			x.memcpy(st.staged[nx][l*blk:(l+1)*blk], send)
		}
		x.set(&st.inFlag[nx][l], 1)
		if !master {
			x.ret()
			return
		}
		x.waitAllEQ(&st.inFlag[nx], 1, -1)
		x.waitEvent(st.rootSet)
		f.pc = rsGatherSlabs
	case rsGatherSlabs:
		// The master forwards each contiguous slab straight to its final
		// offset in the root's receive buffer — one put per run; the root's
		// own node copies its slabs and waits for every remote one to land.
		for f.i < len(st.runs) {
			rn := st.runs[f.i]
			so, po, n := st.slabRange(rn)
			f.i++
			switch {
			case rn.node != nx || nx == rootNI && n == 0:
				continue
			case nx == rootNI:
				x.memcpy(st.rootBuf[po:po+n], st.staged[nx][so:so+n])
			default:
				x.put(masterEp(rootNI), st.rootBuf[po:po+n], st.staged[nx][so:so+n], st.arr[rootNI])
			}
			return
		}
		if nx == rootNI {
			x.waitcntr(st.arr[nx], len(st.runs)-runsOn(nx))
		}
		x.ret()

	case rsScatter:
		f.pc = rsScatterOut
		switch {
		case !master:
		case nx == rootNI:
			f.pc = rsScatterSlabs
		default:
			// Wait for this node's slabs; the root never sends an empty one.
			slabs := 0
			if blk > 0 {
				slabs = runsOn(nx)
			}
			x.waitcntr(st.arr[nx], slabs)
			x.set(st.ready[nx], 1)
		}
	case rsScatterSlabs:
		// The root master slabs the send buffer out: remote runs by put
		// into the target node's staging, local runs by memcpy.
		for f.i < len(st.runs) {
			rn := st.runs[f.i]
			so, po, n := st.slabRange(rn)
			f.i++
			switch {
			case n == 0:
				continue
			case rn.node == nx:
				x.memcpy(st.staged[nx][so:so+n], send[po:po+n])
			default:
				x.put(masterEp(rn.node), st.staged[rn.node][so:so+n], send[po:po+n], st.arr[rn.node])
			}
			return
		}
		x.set(st.ready[nx], 1)
		f.pc = rsScatterOut
	case rsScatterOut:
		// Every member copies its block out of the node staging.
		x.waitEQ(st.ready[nx], 1)
		if blk > 0 {
			x.memcpy(recv, st.staged[nx][l*blk:(l+1)*blk])
		}
		x.ret()

	case rsAllgather:
		// Members stage their block at its group offset in the node's copy
		// of the full vector.
		if off := f.k * blk; blk > 0 {
			x.memcpy(st.staged[nx][off:off+blk], send)
		}
		x.set(&st.inFlag[nx][l], 1)
		f.pc = rsAllgatherFan
		if master {
			x.waitAllEQ(&st.inFlag[nx], 1, -1)
			x.set(st.ready[nx], 1) // step 0: the node's own slabs are staged
			f.pc, f.i = rsAllgatherRing, 1
		}
	case rsAllgatherRing:
		// Ring over node slabs: at step s, forward the slab that
		// originated at node (x-s+1 mod nn); after nn-1 steps the node
		// holds every slab at its final offset. The ready counter ticks
		// per step so members fan slabs out while the ring still runs.
		step, right := f.i, (nx+1)%nn
		if step >= nn {
			f.pc, f.i = rsAllgatherFan, 0
			return
		}
		for _, rn := range st.runs {
			if rn.node == (nx-step+1+nn)%nn {
				_, po, n := st.slabRange(rn)
				x.put(masterEp(right), st.staged[right][po:po+n], st.staged[nx][po:po+n], st.stepArr[right][step])
			}
		}
		// Wait for this step's slabs from the left neighbor; the per-step
		// counter ties the wait to this step's data.
		x.waitcntr(st.stepArr[nx][step], runsOn((nx-step+nn)%nn))
		x.set(st.ready[nx], step+1)
		f.i++
	case rsAllgatherFan:
		// Fan out, pipelined with the ring: at step s the slabs that
		// originated at node (x-s mod nn) become copyable.
		step := f.i
		if step == nn {
			x.ret()
			return
		}
		x.waitGE(st.ready[nx], step+1)
		for _, rn := range st.runs {
			if _, po, n := st.slabRange(rn); rn.node == (nx-step+nn)%nn && n > 0 {
				x.memcpy(recv[po:po+n], st.staged[nx][po:po+n])
			}
		}
		f.i++

	// The large-block allgather: a ring over group members with each block
	// put straight into the right neighbor's receive buffer (a
	// shared-memory copy when the neighbor is local). Bandwidth matches the
	// classic ring; the staging copies disappear. f.k is the group rank.
	case rsDirect:
		gi, P := f.k, len(g.lay.members)
		st.recvBuf[gi] = recv
		st.registered[gi].Trigger()
		x.memcpy(recv[gi*blk:(gi+1)*blk], send)
		if P == 1 {
			x.ret()
			return
		}
		x.waitEvent(st.registered[(gi+1)%P])
		f.pc, f.i = rsDirectRing, 1
	case rsDirectRing:
		gi, P, step := f.k, len(g.lay.members), f.i
		if step == P {
			x.ret()
			return
		}
		gr := (gi + 1) % P
		right := g.lay.members[gr]
		out := (gi - step + 1 + P) % P
		src := recv[out*blk : (out+1)*blk]
		dst := st.recvBuf[gr][out*blk : (out+1)*blk]
		if s.m.NodeOf(right) == x.node {
			x.memcpy(dst, src)
			x.incr(st.stepCnt[gr][step])
		} else {
			x.put(s.dom.Endpoint(right), dst, src, st.stepCnt[gr][step])
		}
		// The step counter identifies the inbound block.
		x.waitcntr(st.stepCnt[gi][step], 1)
		f.i++
	}
}
