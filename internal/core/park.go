package core

import (
	"math"
	"unsafe"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/sim"
)

// A waiting rank of a facade collective holds no executor (parker). Its frames
// are rebuilt from three things that outlive the wait: the operation entry,
// which names the root stepper and the stage it has called with their data;
// the call, whose continuation holds the rank's task and the caller's buffers
// (RankCall); and the rank's rankWait, which holds the rest — the rank's
// place, each frame's pc, indexes and span, and the executor's dataspec and
// interrupt state. A rank has one call in flight, so one rankWait a rank
// serves every wait of the run: the SRM carves them by rank (rankWaits), a run
// of them the first time one of its ranks parks.

// RankCall is the continuation of a rank's blocking collective as the facade
// makes it: a rank has one call in flight at a time, and the call holds what
// it was made with until its continuation has run. A collective started with
// one may park its rank's waits in the rank's record without the executor; a
// request's, a pipeline helper's or any other continuation keeps the
// executor, since its rank may have another call in flight.
type RankCall interface {
	sim.K
	// Args returns the task the call runs on and the call's first and second
	// buffer argument: Bcast's buf, Allreduce's send and recv, none for
	// Barrier.
	Args() (t *sim.Task, a, c []byte)
}

// staged is a root stepper whose SMP stage a rank may wait in: stage returns
// the stage its frame f has called, with the buffers it called it with.
type staged interface {
	stage(x *exec, f *frame) (b stepper, a, c []byte)
}

// rankWait is what a facade rank keeps of its executor while it waits on the
// last operation of a step: a cache line. state holds exec's armed and fired,
// for the visit that hands the record to a primitive, and its quiet.
type rankWait struct {
	call      RankCall
	g         *Group
	seq, rank int32 // the operation's sequence number; the rank
	at        slot  // the rank's place in the group
	span      [maxDepth]int32
	i, k      [maxDepth]uint16
	pc, j     [maxDepth]uint8
	depth     uint8
	dt, dop   uint8
	state     uint8 // rankArmed, rankFired, rankQuiet
}

// rankWaits is the rankWait of every rank that has parked in the run, by rank,
// carved waitRun at a time from the reserve's slabs.
type rankWaits struct {
	mem  bufpool.Chunks[rankWait]
	runs [][]rankWait
}

const waitRun = 128

// of returns the record of rank, one of P, carving its run the first time.
func (ws *rankWaits) of(rank, P int) *rankWait {
	if ws.runs == nil {
		ws.runs = make([][]rankWait, (P+waitRun-1)/waitRun)
	}
	i := rank / waitRun
	if ws.runs[i] == nil {
		ws.runs[i] = ws.mem.Take(waitRun)
	}
	return &ws.runs[i][rank%waitRun]
}

// release hands the records back to the reserve.
func (ws *rankWaits) release() {
	ws.mem.Release()
	*ws = rankWaits{}
}

const (
	rankArmed = 1 << iota
	rankFired
	rankQuiet
)

// parkRank is the parker of a facade collective's root stepper root: it hands
// out the rank's record, armed, when x runs a RankCall with root as its body
// and the record rebuilds every frame exactly, and nil otherwise, which keeps
// x.
func (x *exec) parkRank(root stepper) parked {
	call, ok := x.kont.(RankCall)
	if !ok || x.root.b != root {
		return nil
	}
	if _, a, c := call.Args(); !sameBytes(x.root.a, a) || !sameBytes(x.root.c, c) {
		return nil
	}
	if x.depth == maxDepth {
		st, ok := root.(staged)
		if !ok {
			return nil
		}
		sub := &x.sub.frame
		if b, a, c := st.stage(x, &x.root); b == nil || sub.b != b || !sameBytes(sub.a, a) || !sameBytes(sub.c, c) {
			return nil
		}
	}
	w := x.s.waits.of(int(x.rank), x.s.m.P())
	for d := range int(x.depth) {
		f := &x.root
		if d > 0 {
			f = &x.sub.frame
		}
		if uint32(f.pc) > math.MaxUint8 || uint32(f.j) > math.MaxUint8 || uint32(f.i) > math.MaxUint16 || uint32(f.k) > math.MaxUint16 {
			return nil
		}
		w.pc[d], w.j[d], w.i[d], w.k[d], w.span[d] = uint8(f.pc), uint8(f.j), uint16(f.i), uint16(f.k), f.span
	}
	w.call, w.g, w.seq, w.rank, w.at = call, x.g, x.seq, x.rank, slot{x.nx, x.l}
	w.depth, w.dt, w.dop, w.state = x.depth, x.dt, x.dop, rankArmed
	if x.quiet {
		w.state |= rankQuiet
	}
	return w
}

// sameBytes reports whether a and b are the same slice of the same memory.
func sameBytes(a, b []byte) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// Resume notes an inline completion while armed. Later it takes an executor,
// rebuilds the rank's frames and runs them.
func (w *rankWait) Resume() {
	if w.state&rankArmed != 0 {
		w.state |= rankFired
		return
	}
	g := w.g
	t, a, c := w.call.Args()
	x := g.s.exec(t, w.call)
	root := rootOf(g.place(x, int(w.rank), w.at, int(w.seq)), x.l)
	x.dt, x.dop, x.quiet = w.dt, w.dop, w.state&rankQuiet != 0
	w.restore(x.call(root, int(w.pc[0]), int(w.k[0]), a, c), 0)
	if w.depth == maxDepth {
		b, a, c := root.(staged).stage(x, &x.root)
		w.restore(x.call(b, int(w.pc[1]), int(w.k[1]), a, c), 1)
	}
	x.run()
}

// restore sets what call does not of the frame at depth d.
func (w *rankWait) restore(f *frame, d int) {
	f.i, f.j, f.span = int32(w.i[d]), int32(w.j[d]), w.span[d]
}

func (w *rankWait) disarm() bool {
	fired := w.state&rankFired != 0
	w.state &^= rankArmed | rankFired
	return fired
}

// rootOf returns the root stepper of a rank of local index l in the operation
// of state st: the allreduce's node stages for a worker, the state itself
// otherwise.
func rootOf(st any, l int32) stepper {
	if a, ok := st.(interface{ stages() *nodeStages }); ok && l != 0 {
		return a.stages()
	}
	return st.(stepper)
}

// The facade collectives whose ranks park (rankWait).

func (b *bcastState) park(x *exec, _ *frame) parked   { return x.parkRank(b) }
func (ns *nodeStages) park(x *exec, _ *frame) parked  { return x.parkRank(ns) }
func (a *rdState) park(x *exec, _ *frame) parked      { return x.parkRank(a) }
func (b *barrierState) park(x *exec, _ *frame) parked { return x.parkRank(b) }
