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
// another algorithm: the fold RD uses brings the extra masters in before the
// halving rounds and returns the finished vector to them after the doubling
// rounds.
type rhdState struct {
	fold

	halfSlot [][][]byte       // [node][round]: staging for the incoming half
	halfArr  [][]*rma.Counter // [node][round]: half arrived
	dblArr   [][]*rma.Counter // [node][round]: allgather segment landed in recv
}

func newRHDState(g *Group, size int, ds dataspec) *rhdState {
	s := g.s
	a := &rhdState{fold: newFold(g, size, ds)}
	nn := len(g.lay.nodes)
	rounds := tree.Log2Ceil(a.pow)
	esize := ds.dt.Size()
	elems := size / esize
	a.halfSlot = make([][][]byte, nn)
	a.halfArr = make([][]*rma.Counter, nn)
	a.dblArr = make([][]*rma.Counter, nn)
	for x := 0; x < nn; x++ {
		a.carve(s, x)
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
	rhdScatter = fdExchange + iota // f.i counts halving rounds up
	rhdGather                      // f.i counts doubling rounds back down
	rhdGatherPut
)

// step is the master's role: the fold-in, the halving reduce-scatter, the
// doubling allgather and the fold-out leave the full result in recv, which
// is then distributed on the node.
func (a *rhdState) step(x *exec, f *frame) {
	g, nx, send, recv, r := x.g, x.nx, f.a, f.c, f.i
	esize := a.ds.dt.Size()
	elems := a.size / esize
	rounds := len(a.halfArr[nx])
	d := a.pow >> (r + 1)
	partner := nx ^ d
	switch f.pc {
	case fdReduce:
		// The halving rounds work in recv from the start.
		x.reduceInto(a.rn[nx], 0, recv, send)
		f.pc, f.j = fdFold, 1
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
		x.put(g.master(partner), a.halfSlot[partner][r][:len(sb)], sb, a.halfArr[partner][r])
		x.waitcntr(a.halfArr[nx][r], 1)
		if n := (kHi - kLo) * esize; n > 0 {
			x.combine(recv[kLo*esize:kHi*esize], nil, a.halfSlot[nx][r][:n])
		}
		f.i++
	case rhdGather:
		// Allgather by recursive doubling: walk the rounds back up, putting
		// the finished segment straight into the partner's receive buffer.
		if r < 0 {
			f.pc = fdUnfold
			return
		}
		x.waitEvent(a.resReady[partner])
		f.pc = rhdGatherPut
	case rhdGatherPut:
		lo, hi := a.segment(nx, r+1, elems)
		x.put(g.master(partner), a.resBuf[partner][lo*esize:hi*esize], recv[lo*esize:hi*esize], a.dblArr[partner][r])
		x.waitcntr(a.dblArr[nx][r], 1)
		f.pc, f.i = rhdGather, r-1
	default:
		a.foldStep(x, f)
	}
}
