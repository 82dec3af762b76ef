package core

import (
	"fmt"

	"srmcoll/internal/dtype"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// scanState implements MPI_Scan (inclusive prefix reduction over group
// ranks) with a Hillis-Steele doubling schedule carried by RMA puts:
// ceil(log2 P) rounds, in round r member i sends its running partial to
// member i+2^r and folds in the partial from member i-2^r. Intra-node
// hops automatically become shared-memory copies (the RMA loopback), so
// with block rank placement the first log2(tasks-per-node) rounds never
// touch the network. Only commutative operators are supported (all the
// operators of internal/dtype are).
type scanState struct {
	g    *Group
	size int
	ds   dataspec

	rounds int
	slot   [][][]byte       // [member][round]
	arr    [][]*rma.Counter // [member][round]
	shift  [][]byte         // Exscan: the shifted-result landing zone
	sarr   []*rma.Counter
}

func newScanState(g *Group, size int, ds dataspec) *scanState {
	s := g.s
	P := len(g.lay.members)
	st := &scanState{
		g:     g,
		size:  size,
		ds:    ds,
		slot:  make([][][]byte, P),
		arr:   make([][]*rma.Counter, P),
		shift: make([][]byte, P),
		sarr:  make([]*rma.Counter, P),
	}
	for st.rounds = 0; 1<<st.rounds < P; st.rounds++ {
	}
	for i := 0; i < P; i++ {
		st.slot[i] = make([][]byte, st.rounds)
		st.arr[i] = make([]*rma.Counter, st.rounds)
		for r := 0; r < st.rounds; r++ {
			st.slot[i][r] = s.slot(size)
			st.arr[i][r] = s.counter(0, trace.ClassWaitCntr)
		}
		st.shift[i] = s.slot(size)
		st.sarr[i] = s.counter(0, trace.ClassWaitCntr)
	}
	return st
}

// Scan leaves in each member's recv the reduction of the send buffers of
// all members with group rank <= its own (inclusive prefix).
func (g *Group) Scan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	g.ScanT(&p.Task, rank, send, recv, dt, op, p.Resume())
	p.Park()
}

// ScanT is Scan in continuation form; kont runs when it completes.
func (g *Group) ScanT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	x := g.s.exec(t, kont)
	g.scan(x, rank, send, recv, dataspec{dt, op}, false)
	x.run()
}

// Exscan is the exclusive prefix: member i receives the reduction over
// group ranks < i; the first member's recv is left zeroed.
func (g *Group) Exscan(p *sim.Proc, rank int, send, recv []byte, dt dtype.Type, op dtype.Op) {
	g.ExscanT(&p.Task, rank, send, recv, dt, op, p.Resume())
	p.Park()
}

// ExscanT is Exscan in continuation form; kont runs when it completes.
func (g *Group) ExscanT(t *sim.Task, rank int, send, recv []byte, dt dtype.Type, op dtype.Op, kont func()) {
	x := g.s.exec(t, kont)
	g.scan(x, rank, send, recv, dataspec{dt, op}, true)
	x.run()
}

func (g *Group) scan(x *exec, rank int, send, recv []byte, ds dataspec, exclusive bool) {
	if err := ds.validate(len(send)); err != nil {
		panic(err)
	}
	if len(recv) != len(send) {
		panic(fmt.Sprintf("core: scan recv %d bytes, want %d", len(recv), len(send)))
	}
	sc := g.acquire(x, rank, func() any { return newScanState(g, len(send), ds) }).(*scanState)
	if sc.size != len(send) || sc.ds != ds {
		panic(fmt.Sprintf("core: scan mismatch at rank %d", rank))
	}
	x.ds = ds
	f := x.call(sc, 0, g.groupRank(rank), send, recv)
	if exclusive {
		f.j = 1
	}
}

// step: f.k is the group rank, f.i counts rounds, f.j != 0 means Exscan.
func (st *scanState) step(x *exec, f *frame) {
	g, gi, send, recv := st.g, f.k, f.a, f.c
	P := len(g.lay.members)
	ep := func(i int) *rma.Endpoint { return g.s.dom.Endpoint(g.lay.members[i]) }
	switch {
	case f.pc == 0:
		// Running inclusive partial lives in recv.
		if st.size > 0 {
			x.memcpy(recv, send)
		}
		f.pc = 1
	case f.pc == 1 && f.i < st.rounds:
		r, dist := f.i, 1<<f.i
		if gi+dist < P {
			x.put(ep(gi+dist), st.slot[gi+dist][r], recv, st.arr[gi+dist][r])
		}
		if gi-dist >= 0 {
			x.waitcntr(st.arr[gi][r], 1)
			if st.size > 0 {
				x.combine(recv, nil, st.slot[gi][r]) // commutative fold
			}
		}
		f.i++
	case f.pc == 1:
		f.pc = 2
		if f.j == 0 {
			x.ret()
			return
		}
		// Exscan: shift the inclusive results right by one member.
		if gi+1 < P {
			x.put(ep(gi+1), st.shift[gi+1], recv, st.sarr[gi+1])
		}
		if gi > 0 {
			x.waitcntr(st.sarr[gi], 1)
			if st.size > 0 {
				x.memcpy(recv, st.shift[gi])
			}
			x.ret()
		}
	default:
		// The first member's exclusive prefix is empty; recv was the put's
		// source until now.
		clear(recv)
		x.ret()
	}
}
