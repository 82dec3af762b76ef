package scale

import (
	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
)

// rankSM is one rank's allreduce protocol as an explicit state machine: its
// continuation frame, held in a struct instead of a goroutine stack or a chain
// of per-repetition closures. All machines live in one slab
// (run.sms) allocated before spawning, and each machine hands the simulator
// the same stored continuation — sm.step, bound once — for every suspension,
// so the steady state allocates nothing per repetition: the loop indices (k,
// i, ci) advance in place and sm.state says where to resume.
//
// The schedule of sleeps, waits, copies, and puts is the same call for call
// as that of the straight-line oracle in the package's tests (rankProc), which
// is what keeps their virtual time bit-identical; the equivalence tests fail
// when the two differ.
type rankSM struct {
	r     *run
	t     *sim.Task
	rank  int
	node  int
	local int
	tpn   int
	reps  int
	ns    *nodeState
	ps    *nodeState // parent node, nil at the root
	ep    *rma.Endpoint
	pep   *rma.Endpoint // parent master's endpoint, nil at the root

	k  int // current repetition, 1-based
	i  int // intra-node fold index (masters)
	ci int // child index (masters)

	state      uint8
	combineSrc []byte // slot being folded while the combine sleep runs
	step       func() // == sm.dispatch; the only closure a machine ever allocates
}

// States name the suspension that just resumed: each constant is the point
// in the protocol the pending primitive completes into.
const (
	wkCopiedIn    uint8 = iota // worker: contribution copy-in done
	wkResultReady              // worker: result flag reached rep k
	wkCopiedOut                // worker: result copy-out done
	msAccLoaded                // master: acc <- send memcpy done
	msIntraFlag                // master: local i's contribution flag reached k
	msIntraFold                // master: intra combine sleep elapsed
	msChildSlot                // master: child ci's reduce slot arrived
	msChildFold                // master: child combine sleep elapsed
	msChildCred                // master: reduce credit returned to child ci
	msUpCredit                 // master: parent granted the reduce credit
	msUpSent                   // master: acc put to the parent done
	msBcastSlot                // master: broadcast buffer arrived
	msBcastCopy                // master: resultSeg <- bBuf memcpy done
	msDownCred                 // master: broadcast credit returned to parent
	msRootCopy                 // root:   resultSeg <- acc memcpy done
	msDownGrant                // master: broadcast credit from child ci arrived
	msDownSent                 // master: result put to child ci done
	msFinalCopy                // master: recv <- resultSeg memcpy done
)

// dispatch resumes the machine at sm.state. Straight-line stretches run to
// the next suspension point inside one call; loop heads live in the helper
// methods below so both their entry and back edge share code.
func (sm *rankSM) dispatch() {
	switch sm.state {
	case wkCopiedIn:
		sm.ns.contribF.Flag(sm.local).Set(sm.k)
		sm.state = wkResultReady
		sm.ns.resultF.WaitGET(sm.t, sm.k, sm.step)
	case wkResultReady:
		sm.state = wkCopiedOut
		sm.ns.resultSeg.CopyOutT(sm.t, sm.r.recv[sm.rank], 0, sm.step)
	case wkCopiedOut:
		sm.k++
		sm.workerRep()

	case msAccLoaded:
		sm.i = 1
		sm.intra()
	case msIntraFlag:
		sm.combine(sm.ns.contrib.Slice(sm.i*sm.r.n, sm.r.n), msIntraFold)
	case msIntraFold:
		sm.fold()
		sm.i++
		sm.intra()
	case msChildSlot:
		sm.combine(sm.ns.rSlots[sm.ci], msChildFold)
	case msChildFold:
		sm.fold()
		cs := sm.r.nodes[sm.ns.children[sm.ci]]
		sm.state = msChildCred
		sm.ep.PutZeroT(sm.t, sm.r.dom.Endpoint(cs.master), cs.upCredit, sm.step)
	case msChildCred:
		sm.ci++
		sm.reduceChild()
	case msUpCredit:
		sm.state = msUpSent
		sm.ep.PutT(sm.t, sm.pep, sm.ps.rSlots[sm.ns.childPos], sm.ns.acc, nil, sm.ps.rArr[sm.ns.childPos], nil, sm.step)
	case msUpSent:
		sm.state = msBcastSlot
		sm.ep.WaitcntrT(sm.t, sm.ns.bArr, 1, sm.step)
	case msBcastSlot:
		sm.state = msBcastCopy
		sm.r.m.MemcpyT(sm.t, sm.node, sm.ns.resultSeg.Bytes(), sm.ns.bBuf, sm.step)
	case msBcastCopy:
		sm.state = msDownCred
		sm.ep.PutZeroT(sm.t, sm.pep, sm.ps.dCredit[sm.ns.childPos], sm.step)
	case msDownCred, msRootCopy:
		// Publish: release the locals, then forward down the tree.
		sm.ns.resultF.Set(sm.k)
		sm.ci = 0
		sm.down()
	case msDownGrant:
		cs := sm.r.nodes[sm.ns.children[sm.ci]]
		sm.state = msDownSent
		sm.ep.PutT(sm.t, sm.r.dom.Endpoint(cs.master), cs.bBuf, sm.ns.resultSeg.Bytes(), nil, cs.bArr, nil, sm.step)
	case msDownSent:
		sm.ci++
		sm.down()
	case msFinalCopy:
		sm.k++
		sm.masterRep()
	}
}

// workerRep is a non-master's repetition head: contribute, wait, copy out.
func (sm *rankSM) workerRep() {
	if sm.k > sm.reps {
		sm.finish()
		return
	}
	sm.state = wkCopiedIn
	sm.ns.contrib.CopyInT(sm.t, sm.local*sm.r.n, sm.r.send[sm.rank], sm.step)
}

// masterRep is a master's repetition head: load the accumulator, then walk
// the four phases the package documents.
func (sm *rankSM) masterRep() {
	if sm.k > sm.reps {
		sm.finish()
		return
	}
	sm.state = msAccLoaded
	sm.r.m.MemcpyT(sm.t, sm.node, sm.ns.acc, sm.r.send[sm.rank], sm.step)
}

// intra is the phase-1 loop head: fold local contribution i, i in [1, tpn).
func (sm *rankSM) intra() {
	if sm.i == sm.tpn {
		sm.ci = 0
		sm.reduceChild()
		return
	}
	sm.state = msIntraFlag
	sm.ns.contribF.Flag(sm.i).WaitGET(sm.t, sm.k, sm.step)
}

// reduceChild is the phase-2 loop head: fold child ci's slot, return credit.
func (sm *rankSM) reduceChild() {
	if sm.ci == len(sm.ns.children) {
		sm.sendUp()
		return
	}
	sm.state = msChildSlot
	sm.ep.WaitcntrT(sm.t, sm.ns.rArr[sm.ci], 1, sm.step)
}

// sendUp starts phase 3: the root publishes its accumulator directly; other
// masters send it up under the parent's credit and wait for the result.
func (sm *rankSM) sendUp() {
	if sm.ns.parent < 0 {
		sm.state = msRootCopy
		sm.r.m.MemcpyT(sm.t, sm.node, sm.ns.resultSeg.Bytes(), sm.ns.acc, sm.step)
		return
	}
	sm.state = msUpCredit
	sm.ep.WaitcntrT(sm.t, sm.ns.upCredit, 1, sm.step)
}

// down is the phase-4 loop head: forward the result to child ci, then copy
// the rank's own receive buffer and advance to the next repetition.
func (sm *rankSM) down() {
	if sm.ci == len(sm.ns.children) {
		sm.state = msFinalCopy
		sm.r.m.MemcpyT(sm.t, sm.node, sm.r.recv[sm.rank], sm.ns.resultSeg.Bytes(), sm.step)
		return
	}
	sm.state = msDownGrant
	sm.ep.WaitcntrT(sm.t, sm.ns.dCredit[sm.ci], 1, sm.step)
}

// combine charges the combine time for one slot; the fold itself runs when
// the sleep resumes into next.
func (sm *rankSM) combine(src []byte, next uint8) {
	sm.combineSrc = src
	sm.state = next
	sm.t.SleepThen(sm.r.m.CombineTime(len(src)), sm.step)
}

// fold performs the deferred combine.
func (sm *rankSM) fold() {
	src := sm.combineSrc
	sm.combineSrc = nil
	sm.r.m.Stats.AddReduce(len(src) / 8)
	dtype.Reduce(dtype.Sum, dtype.Int64, sm.ns.acc, src)
}

func (sm *rankSM) finish() { sm.r.perRank[sm.rank] = sm.t.Now() }

// rankTask is the rank body: it initializes this rank's frame in the
// preallocated slab and runs to the first suspension.
func (r *run) rankTask(t *sim.Task, rank int) {
	sm := &r.sms[rank]
	sm.r = r
	sm.t = t
	sm.rank = rank
	sm.node = r.m.NodeOf(rank)
	sm.local = r.m.LocalRank(rank)
	sm.tpn = r.m.Cfg.TasksPerNode
	sm.reps = r.cfg.Reps
	sm.ns = r.nodes[sm.node]
	sm.ep = r.dom.Endpoint(rank)
	sm.k = 1
	sm.step = sm.dispatch

	if sm.local != 0 {
		sm.workerRep()
		return
	}
	// Masters drive the inter-node protocol with interrupts off (§2.3's
	// small-message regime): arriving puts are polled while the master waits
	// on a counter, and deferred ones drain at its next RMA call.
	sm.ep.SetInterrupts(false)
	if sm.ns.parent >= 0 {
		sm.ps = r.nodes[sm.ns.parent]
		sm.pep = r.dom.Endpoint(sm.ps.master)
	}
	sm.masterRep()
}
