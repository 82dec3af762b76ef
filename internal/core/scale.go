package core

import (
	"fmt"
	"math"

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
	s            *SRM
	n, reps, tpn int
	nodes        []scaleNode
	ranks        []scaleRank // by rank
	send, recv   []byte      // every rank's vectors, rank r's at r·n
	fin          []sim.Time  // by rank: when it finished
}

// scaleRank is what a rank keeps of itself while it waits on the last
// operation of a step, in place of an executor (parker): its task and its
// frame's pc, repetition and index (a local task, or a mask's log). state is
// exec's armed and fired, for the visit that hands the record to a primitive.
type scaleRank struct {
	st    *scaleState
	t     *sim.Task
	k     int32
	i     uint16
	pc    uint8
	state uint8 // 0, rankArmed, or rankArmed|rankFired
}

// Resume notes an inline completion while armed; later it takes an executor,
// rebuilds the rank's frame and runs it.
func (r *scaleRank) Resume() {
	if r.state != 0 {
		r.state |= rankFired
		return
	}
	st := r.st
	s, n, rank := st.s, st.n, r.t.Num()
	x := s.exec(r.t, nil)
	x.rank, x.ep = int32(rank), s.dom.Endpoint(rank)
	x.setSpec(scaleSpec)
	x.nx, x.l = int32(rank/st.tpn), int32(rank%st.tpn)
	x.node = x.nx
	lo, hi := rank*n, (rank+1)*n
	f := x.call(st, int(r.pc), int(r.k), st.send[lo:hi:hi], st.recv[lo:hi:hi])
	f.i = int32(r.i)
	x.run()
}

func (r *scaleRank) disarm() bool {
	fired := r.state&rankFired != 0
	r.state = 0
	return fired
}

// park hands out the rank's record, armed, unless the frame's index is past
// what the record holds (a node of more than 65,536 tasks).
func (st *scaleState) park(x *exec, f *frame) parked {
	if f.i > math.MaxUint16 {
		return nil
	}
	r := &st.ranks[x.rank]
	r.pc, r.k, r.i, r.state = uint8(f.pc), f.k, uint16(f.i), rankArmed
	return r
}

// scaleSpec is the data of every combine of the scale allreduce.
var scaleSpec = dataspec{dtype.Int64, dtype.Sum}

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

func newScaleState(s *SRM, n, reps int, send, recv []byte, fin []sim.Time) *scaleState {
	tpn := s.m.Cfg.TasksPerNode
	st := &scaleState{s: s, n: n, reps: reps, tpn: tpn, nodes: make([]scaleNode, s.m.Cfg.Nodes),
		ranks: make([]scaleRank, len(fin)), send: send, recv: recv, fin: fin}
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
//
// A rank that waits on the last operation of a step holds no executor, only
// its record in scaleState.ranks (parker).
func (s *SRM) ScaleAllreduce(reps int, send, recv []byte, fin []sim.Time) {
	P := s.m.P()
	n := len(send) / P
	if err := scaleSpec.validate(n); err != nil || len(send) != P*n || len(recv) != P*n || len(fin) != P {
		panic(fmt.Sprintf("core: ScaleAllreduce of %d ranks over %d and %d bytes, %d finish times", P, len(send), len(recv), len(fin)))
	}
	e := s.build(func() any { return newScaleState(s, n, reps, send, recv, fin) })
	s.kept = append(s.kept, e)
	st := e.state.(*scaleState)
	body := func(t *sim.Task) {
		rank := t.Num()
		if rank%st.tpn == 0 {
			s.dom.Endpoint(rank).SetInterrupts(false)
		}
		r := &st.ranks[rank]
		r.st, r.t, r.pc, r.k = st, t, scRep, 1
		r.Resume()
	}
	s.m.Env.ReserveTasks(P)
	for rank := range P {
		s.m.Env.SpawnTask("rank", rank, body)
	}
}

// The pcs of a repetition; f.k is the repetition (from 1), f.a send, f.c recv.
// f.i is the local task in scIntra and scFold, and the log of the mask in
// scKids through scCredit and in scDown. A step that waits with more ranks
// than a node's master at once ends on its wait (exec.go), so a worker and a
// master alike spend their waits parked (scaleRank).
const (
	scRep     = iota // copy the contribution in (a worker) or load the accumulator (the master)
	scPosted         // a worker: flag the contribution and wait for the result
	scIntra          // wait for local task f.i's contribution
	scFold           // fold it in
	scKids           // wait for the partial of the child at mask 1<<f.i
	scKidFold        // fold it in
	scCredit         // return that child's reduce credit
	scUp             // send the partial up; at the root, publish it
	scPublish        // wait for the result to come down
	scRelay          // publish it and return the broadcast credit
	scDown           // forward the result to the child at mask 1<<f.i
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
			f.pc = scPosted
			return
		}
		x.memcpy(nd.acc, f.a)
		f.pc, f.i = scIntra, 1
	case scPosted:
		x.set(&nd.contribF[x.l], k)
		x.waitGE(nd.resultF, k)
		f.pc = scOut
	case scIntra:
		if int(f.i) < len(nd.contribF) {
			x.waitGE(&nd.contribF[f.i], k)
			f.pc = scFold
			return
		}
		f.pc, f.i = scKids, 0
	case scFold:
		x.combine(nd.acc, nil, nd.contrib[int(f.i)*n:(int(f.i)+1)*n])
		f.pc, f.i = scIntra, f.i+1
	case scKids:
		if c := st.child(nx, 1<<f.i); c >= 0 {
			x.waitcntr(st.nodes[c].arr, 1)
			f.pc = scKidFold
			return
		}
		f.pc = scUp
	case scKidFold:
		x.combine(nd.acc, nil, st.nodes[st.child(nx, 1<<f.i)].slot)
		f.pc = scCredit
	case scCredit:
		c := st.child(nx, 1<<f.i)
		x.putZero(st.master(c), st.nodes[c].upCredit)
		f.pc, f.i = scKids, f.i+1
	case scUp:
		if nx == 0 {
			x.memcpy(nd.result, nd.acc)
			x.set(nd.resultF, k)
			f.pc, f.i = scDown, 0
			return
		}
		x.waitcntr(nd.upCredit, 1)
		x.put(st.master(st.parent(nx)), nd.slot, nd.acc, nd.arr)
		f.pc = scPublish
	case scPublish:
		x.waitcntr(nd.bArr, 1)
		f.pc = scRelay
	case scRelay:
		x.memcpy(nd.result, nd.bBuf)
		x.putZero(st.master(st.parent(nx)), nd.dCredit)
		x.set(nd.resultF, k)
		f.pc, f.i = scDown, 0
	case scDown:
		if c := st.child(nx, 1<<f.i); c >= 0 {
			cn := &st.nodes[c]
			x.waitcntr(cn.dCredit, 1)
			x.put(st.master(c), cn.bBuf, nd.result, cn.bArr)
			f.i++
			return
		}
		f.pc = scOut
	case scOut:
		x.memcpy(f.c, nd.result)
		f.pc, f.k = scRep, int32(k+1)
	}
}
