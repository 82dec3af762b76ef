package core

// rhdState is the shared state of one recursive halving/doubling allreduce
// (AlgRHD, Rabenseifner's algorithm): an SMP reduce on each node, a
// reduce-scatter by recursive vector halving across the largest power of
// two of node masters, a recursive-doubling allgather back up, then an SMP
// broadcast. Node counts that are not a power of two do NOT fall back to
// another algorithm: the fold RD uses brings the extra masters in before the
// halving rounds and returns the finished vector to them after the doubling
// rounds. Round r's slot, staging for the incoming half, is the fold's
// exchange slot of round r; its counters are the fold's two of round r, the
// half arrived and the allgather segment landed in recv.
type rhdState struct{ fold }

func newRHDState(g *Group, size int, ds dataspec) *rhdState {
	esize := ds.dt.Size()
	elems := size / esize
	// The half received at round r is at most ceil(elems/2^(r+1)) elements.
	return &rhdState{newFold(g, size, ds, 2, func(r int) int { return ((elems >> (r + 1)) + 1) * esize })}
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
	g, nx, send, recv, r := x.g, int(x.nx), f.a, f.c, int(f.i)
	esize := a.ds.dt.Size()
	elems := a.size / esize
	rounds := a.rounds
	d := a.pow >> (r + 1)
	partner := nx ^ d
	switch f.pc {
	case fdReduce:
		// The halving rounds work in recv from the start.
		x.reduceInto(&a.rn[nx], 0, recv, send)
		f.pc, f.j = fdFold, 1
	case rhdScatter:
		// Reduce-scatter by recursive halving: each round trades the half
		// of the current segment the partner keeps, then combines the
		// received half into the kept one.
		if r == rounds {
			f.pc, f.i = rhdGather, int32(rounds-1)
			return
		}
		lo, hi := a.segment(nx, r, elems)
		mid := lo + (hi-lo)/2
		sLo, sHi, kLo, kHi := mid, hi, lo, mid // distance bit clear: keep lower half
		if nx&d != 0 {
			sLo, sHi, kLo, kHi = lo, mid, mid, hi
		}
		sb := recv[sLo*esize : sHi*esize]
		x.put(g.master(partner), (*a.slot.at(partner, 1+r))[:len(sb)], sb, &a.cn[partner][cnRound+2*r])
		x.waitcntr(&a.cn[nx][cnRound+2*r], 1)
		if n := (kHi - kLo) * esize; n > 0 {
			x.combine(recv[kLo*esize:kHi*esize], nil, (*a.slot.at(nx, 1+r))[:n])
		}
		f.i++
	case rhdGather:
		// Allgather by recursive doubling: walk the rounds back up, putting
		// the finished segment straight into the partner's receive buffer.
		if r < 0 {
			f.pc = fdUnfold
			return
		}
		x.waitEvent(&a.nodes[partner].ready)
		f.pc = rhdGatherPut
	case rhdGatherPut:
		lo, hi := a.segment(nx, r+1, elems)
		x.put(g.master(partner), a.nodes[partner].dst[lo*esize:hi*esize], recv[lo*esize:hi*esize], &a.cn[partner][cnRound+2*r+1])
		x.waitcntr(&a.cn[nx][cnRound+2*r+1], 1)
		f.pc, f.i = rhdGather, int32(r-1)
	default:
		a.foldStep(x, f)
	}
}
