package core

import (
	"srmcoll/internal/rma"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// rhdState is the shared state of one recursive halving/doubling allreduce
// (AlgRHD, Rabenseifner's algorithm): an SMP reduce on each node, a
// reduce-scatter by recursive vector halving across the largest power of
// two of node masters, a recursive-doubling allgather back up, then an SMP
// broadcast. Node counts that are not a power of two do NOT fall back to
// another algorithm: the extra masters (x >= pow) fold their node partial
// into master x-pow before the halving rounds and receive the finished
// vector straight into their receive buffer after the doubling rounds —
// the same pre/post fold-in step the small-message recursive-doubling
// exchange uses.
type rhdState struct {
	nodeStages // with a single whole-vector chunk
	g          *Group

	pow      int              // largest power of two <= participating nodes
	foldSlot [][]byte         // extras fold their whole vector in here
	foldArr  []*rma.Counter   // fold-in arrived
	resArr   []*rma.Counter   // finished vector landed back at an extra
	halfSlot [][][]byte       // [node][round]: staging for the incoming half
	halfArr  [][]*rma.Counter // [node][round]: half arrived
	dblArr   [][]*rma.Counter // [node][round]: allgather segment landed in recv
}

func newRHDState(g *Group, size int, ds dataspec) *rhdState {
	s := g.s
	a := &rhdState{g: g, nodeStages: newNodeStages(g, size, ds, chunks(size, max(size, 1)))}
	nn := len(g.lay.nodes)
	a.pow = 1
	for a.pow*2 <= nn {
		a.pow *= 2
	}
	rounds := tree.Log2Ceil(a.pow)
	esize := ds.dt.Size()
	elems := size / esize
	a.foldSlot = make([][]byte, nn)
	a.foldArr = make([]*rma.Counter, nn)
	a.resArr = make([]*rma.Counter, nn)
	a.halfSlot = make([][][]byte, nn)
	a.halfArr = make([][]*rma.Counter, nn)
	a.dblArr = make([][]*rma.Counter, nn)
	for x := 0; x < nn; x++ {
		a.foldSlot[x] = s.slot(size)
		a.foldArr[x] = s.counter(0, trace.ClassWaitArrive)
		a.resArr[x] = s.counter(0, trace.ClassWaitArrive)
		a.halfSlot[x] = make([][]byte, rounds)
		a.halfArr[x] = make([]*rma.Counter, rounds)
		a.dblArr[x] = make([]*rma.Counter, rounds)
		for r := 0; r < rounds; r++ {
			// The half received at round r is at most ceil(elems/2^(r+1))
			// elements.
			a.halfSlot[x][r] = s.slot(((elems >> (r + 1)) + 1) * esize)
			a.halfArr[x][r] = s.counter(0, trace.ClassWaitArrive)
			a.dblArr[x][r] = s.counter(0, trace.ClassWaitArrive)
		}
	}
	return a
}

// segment returns the element range [lo, hi) master x is responsible for
// after r halving rounds: each round keeps the lower half when the
// round's distance bit of x is clear, the upper half when it is set.
func (a *rhdState) segment(x, r, elems int) (lo, hi int) {
	lo, hi = 0, elems
	for i := 0; i < r; i++ {
		d := a.pow >> (i + 1)
		mid := lo + (hi-lo)/2
		if x&d == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

const (
	rhdReduce = iota
	rhdFold
	rhdScatter // f.i counts halving rounds up
	rhdGather  // f.i counts doubling rounds back down
	rhdGatherPut
	rhdUnfold
	rhdPublish
	rhdDone
)

// step is the master's role: the fold-in, the halving reduce-scatter, the
// doubling allgather and the fold-out leave the full result in recv, which
// is then distributed on the node.
func (a *rhdState) step(x *exec, f *frame) {
	g, nx, send, recv, r := a.g, x.nx, f.a, f.c, f.i
	nn := len(g.lay.nodes)
	esize := a.ds.dt.Size()
	elems := a.size / esize
	rounds := len(a.halfArr[nx])
	d := a.pow >> (r + 1)
	partner := nx ^ d
	switch f.pc {
	case rhdReduce:
		f.pc = rhdFold
		if !x.reduceLocal(a.rn[nx], 0, recv, send) && a.size > 0 {
			x.memcpy(recv, send) // single task on the node
		}
	case rhdFold:
		if nx >= a.pow {
			// Fold out: hand the node partial to the peer, then receive the
			// finished vector straight into recv.
			peer := nx - a.pow
			x.put(g.masterEp(peer), a.foldSlot[peer], recv, a.foldArr[peer])
			x.waitcntr(a.resArr[nx], 1)
			f.pc = rhdPublish
			return
		}
		if nx+a.pow < nn {
			x.waitcntr(a.foldArr[nx], 1)
			if a.size > 0 {
				x.combine(recv, nil, a.foldSlot[nx])
			}
		}
		f.pc = rhdScatter
	case rhdScatter:
		// Reduce-scatter by recursive halving: each round trades the half
		// of the current segment the partner keeps, then combines the
		// received half into the kept one.
		if r == rounds {
			f.pc, f.i = rhdGather, rounds-1
			return
		}
		lo, hi := a.segment(nx, r, elems)
		mid := lo + (hi-lo)/2
		sLo, sHi, kLo, kHi := mid, hi, lo, mid // distance bit clear: keep lower half
		if nx&d != 0 {
			sLo, sHi, kLo, kHi = lo, mid, mid, hi
		}
		sb := recv[sLo*esize : sHi*esize]
		x.put(g.masterEp(partner), a.halfSlot[partner][r][:len(sb)], sb, a.halfArr[partner][r])
		x.waitcntr(a.halfArr[nx][r], 1)
		if n := (kHi - kLo) * esize; n > 0 {
			x.combine(recv[kLo*esize:kHi*esize], nil, a.halfSlot[nx][r][:n])
		}
		f.i++
	case rhdGather:
		// Allgather by recursive doubling: walk the rounds back up, putting
		// the finished segment straight into the partner's receive buffer.
		switch {
		case r >= 0:
			x.waitEvent(a.resReady[partner])
			f.pc = rhdGatherPut
		case nx+a.pow < nn:
			x.waitEvent(a.resReady[nx+a.pow])
			f.pc = rhdUnfold
		default:
			f.pc = rhdPublish
		}
	case rhdGatherPut:
		lo, hi := a.segment(nx, r+1, elems)
		x.put(g.masterEp(partner), a.resBuf[partner][lo*esize:hi*esize], recv[lo*esize:hi*esize], a.dblArr[partner][r])
		x.waitcntr(a.dblArr[nx][r], 1)
		f.pc, f.i = rhdGather, r-1
	case rhdUnfold:
		// Return the full result to the folded-out node's recv buffer.
		extra := nx + a.pow
		x.put(g.masterEp(extra), a.resBuf[extra], recv, a.resArr[extra])
		f.pc = rhdPublish
	case rhdPublish:
		f.pc = rhdDone
		x.publish(a.pub[nx], 0, recv, false)
	case rhdDone:
		a.pub[nx].waitConsumed(x, 0)
		x.ret()
	}
}
