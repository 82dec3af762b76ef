package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// scaleState is the shared state of the massive-rank allreduce that package
// scale runs: an int64 sum over every rank, reps repetitions back to back in
// one call, SMP-aware binomial between the node masters (SimGrid's
// allreduce-smp-binomial). Per repetition, for payload n on each rank:
//
//  1. intra-node contribute: every other task copies its vector into its slot
//     of the node's contribution buffer and sets its flag; the master folds
//     the slots into its accumulator in local-rank order.
//  2. inter-node reduce: each master folds its child nodes' partials, which
//     land in a slot per child at the master, returning each child's one-deep
//     credit after the fold, then puts its own partial into its slot at the
//     parent under the credit the parent returned — so repetition r+1
//     pipelines behind r without overwriting live data.
//  3. inter-node broadcast: the result flows down the same tree into a
//     buffer at each node, again under one-deep credits.
//  4. intra-node result: the master publishes the result in the node's
//     result buffer and sets the result flag; the others copy it out.
//
// The tree is binomial over node ids rooted at node 0: node x's children are
// x|m for each power of two m below x's lowest set bit, visited in ascending
// m (the mask loop), and its parent clears that bit.
type scaleState struct {
	n, reps, tpn int
	nodes        []scaleNode
	fin          []sim.Time // by rank: when it finished
}

// scaleNode is one node's protocol state. The link to its parent is kept with
// the child: the slot and the two counters at the parent's end, the buffer and
// the two counters at its own. The root's link fields are unused.
type scaleNode struct {
	contrib  []byte // a slot of n bytes per local task, local i's at i·n
	result   []byte // the published result
	acc      []byte // the master's accumulator
	contribF flagSet
	resultF  *shm.Flag // repetitions published

	slot         []byte       // at the parent: this node's partial lands here
	arr, dCredit *rma.Counter // at the parent: the partial arrived; the broadcast credit, initially 1
	bBuf         []byte       // the result lands here
	upCredit     *rma.Counter // the reduce credit, initially 1
	bArr         *rma.Counter // the result arrived
}

// child returns node x's child at mask m, or -1 once the masks are exhausted.
func (st *scaleState) child(x, m int) int {
	if x != 0 && m >= x&-x || x|m >= len(st.nodes) {
		return -1
	}
	return x | m
}

// parent returns node x's parent (x > 0).
func (st *scaleState) parent(x int) int { return x &^ (x & -x) }

// master returns the rank of node x's master, its first task.
func (st *scaleState) master(x int) int { return x * st.tpn }

func newScaleState(s *SRM, n, reps int, fin []sim.Time) *scaleState {
	tpn := s.m.Cfg.TasksPerNode
	st := &scaleState{n: n, reps: reps, tpn: tpn, nodes: make([]scaleNode, s.m.Cfg.Nodes), fin: fin}
	for x := range st.nodes {
		nd := &st.nodes[x]
		nd.contrib, nd.result, nd.acc = s.slot(tpn*n), s.slot(n), s.slot(n)
		nd.contribF, nd.resultF = s.flags(x, tpn), s.flag(x)
	}
	// Every flag first, then the counters node by node, each master's
	// children before its own link: stall reports name them by that order.
	for x := range st.nodes {
		for m := 1; st.child(x, m) >= 0; m <<= 1 {
			cn := &st.nodes[st.child(x, m)]
			cn.slot = s.slot(n)
			cn.arr = s.counter(0, trace.ClassWaitArrive)
			cn.dCredit = s.counter(1, trace.ClassWaitCredit)
		}
		if x > 0 {
			nd := &st.nodes[x]
			nd.bBuf = s.slot(n)
			nd.upCredit = s.counter(1, trace.ClassWaitCredit)
			nd.bArr = s.counter(0, trace.ClassWaitArrive)
		}
	}
	return st
}

// ScaleAllreduce starts every rank of the machine as a task of its own, named
// "rank", that runs reps back-to-back allreduces (int64 sum) of its vector in
// send into its vector in recv, the protocol of scaleState, and sets fin[rank]
// to the time it finished. Rank r's vectors are the r-th of len(fin) equal
// parts of send and recv. The operation is the engine's only one: it places
// ranks by arithmetic, with no group, whose member list and indexes would be
// bytes per rank, and its flags and counters go back to the reserve with the
// engine (SRM.Release).
//
// A master turns interrupts off for good (§2.3's small-message regime):
// arriving puts are polled while it waits on a counter and deferred ones drain
// at its next RMA call. Unlike quietNet it leaves them off when it finishes:
// after the last repetition it still holds undrained broadcast credits, and
// turning interrupts on would deliver them.
func (s *SRM) ScaleAllreduce(reps int, send, recv []byte, fin []sim.Time) {
	P := s.m.P()
	ds, n := dataspec{dtype.Int64, dtype.Sum}, len(send)/P
	if err := ds.validate(n); err != nil || len(send) != P*n || len(recv) != P*n || len(fin) != P {
		panic(fmt.Sprintf("core: ScaleAllreduce of %d ranks over %d and %d bytes, %d finish times", P, len(send), len(recv), len(fin)))
	}
	e := &opEntry{}
	s.build(e, func() any { return newScaleState(s, n, reps, fin) })
	s.kept = append(s.kept, e)
	st := e.state.(*scaleState)
	body := func(t *sim.Task) {
		rank := t.Num()
		x := s.exec(t, nil)
		x.rank, x.ep = int32(rank), s.dom.Endpoint(rank)
		x.setSpec(ds)
		x.nx, x.l = int32(rank/st.tpn), int32(rank%st.tpn)
		x.node = x.nx
		if x.l == 0 {
			x.ep.SetInterrupts(false)
		}
		x.call(st, scRep, 1, send[rank*n:(rank+1)*n:(rank+1)*n], recv[rank*n:(rank+1)*n:(rank+1)*n])
		x.run()
	}
	for rank := range P {
		s.m.Env.SpawnTask("rank", rank, body)
	}
}

// The pcs of a repetition; f.k is the repetition (from 1), f.a send, f.c recv.
// f.i is the local task in scIntra and the mask in scKids and scDown.
const (
	scRep     = iota // contribute (a worker) or load the accumulator (the master)
	scIntra          // fold local task f.i's contribution
	scKids           // fold the partial of the child at mask f.i
	scUp             // send the partial up; at the root, publish it
	scPublish        // publish the result that came down
	scDown           // forward the result to the child at mask f.i
	scOut            // copy the result out
)

func (st *scaleState) step(x *exec, f *frame) {
	nx, k, n := int(x.nx), int(f.k), st.n
	nd := &st.nodes[nx]
	switch f.pc {
	case scRep:
		if k > st.reps {
			st.fin[x.rank] = x.t.Now()
			x.ret()
			return
		}
		if x.l != 0 {
			x.memcpy(nd.contrib[int(x.l)*n:(int(x.l)+1)*n], f.a)
			x.set(&nd.contribF[x.l], k)
			x.waitGE(nd.resultF, k)
			f.pc = scOut
			return
		}
		x.memcpy(nd.acc, f.a)
		f.pc, f.i = scIntra, 1
	case scIntra:
		if int(f.i) < len(nd.contribF) {
			x.waitGE(&nd.contribF[f.i], k)
			x.combine(nd.acc, nil, nd.contrib[int(f.i)*n:(int(f.i)+1)*n])
			f.i++
			return
		}
		f.pc, f.i = scKids, 1
	case scKids:
		if c := st.child(nx, int(f.i)); c >= 0 {
			cn := &st.nodes[c]
			x.waitcntr(cn.arr, 1)
			x.combine(nd.acc, nil, cn.slot)
			x.putZero(st.master(c), cn.upCredit)
			f.i <<= 1
			return
		}
		f.pc = scUp
	case scUp:
		if nx == 0 {
			x.memcpy(nd.result, nd.acc)
			x.set(nd.resultF, k)
			f.pc, f.i = scDown, 1
			return
		}
		x.waitcntr(nd.upCredit, 1)
		x.put(st.master(st.parent(nx)), nd.slot, nd.acc, nd.arr)
		x.waitcntr(nd.bArr, 1)
		f.pc = scPublish
	case scPublish:
		x.memcpy(nd.result, nd.bBuf)
		x.putZero(st.master(st.parent(nx)), nd.dCredit)
		x.set(nd.resultF, k)
		f.pc, f.i = scDown, 1
	case scDown:
		if c := st.child(nx, int(f.i)); c >= 0 {
			cn := &st.nodes[c]
			x.waitcntr(cn.dCredit, 1)
			x.put(st.master(c), cn.bBuf, nd.result, cn.bArr)
			f.i <<= 1
			return
		}
		f.pc = scOut
	case scOut:
		x.memcpy(f.c, nd.result)
		f.pc, f.k = scRep, int32(k+1)
	}
}
