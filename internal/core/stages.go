package core

import (
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// The inter-node stages that more than one collective runs, each written once:
//
//   - treeReduce, the chunk-pipelined reduce up a tree of node masters (§2.4).
//     Reduce runs it over one tree, the Figure-5 allreduce pipeline as its
//     reduce side over one tree, the dual-root pipeline over two;
//   - treeBcast, the broadcast down a tree of node masters that puts each chunk
//     straight into the children's registered receive buffers (Fig. 4 right).
//     The large-message Bcast's masters run it, and so does the broadcast
//     helper of either pipeline;
//   - fold, which brings a node count that is not a power of two down to one
//     for recursive doubling (RD) and recursive halving/doubling (RHD).

// window is the two-deep credit window of §2.4 on the links between node
// masters: the receiving end of a link holds two slots for it, used by
// parity, with an arrival counter each; the sending end holds a credit
// counter, initially 2, which the receiver replenishes with a zero-byte put
// once it has drained a slot. The slices are indexed by the layout's
// participating node index of one end of the link: the sending child in a
// tree, the receiving master in the ring.
type window struct {
	slot   [][2][]byte       // at the receiving end
	arr    [][2]*rma.Counter // per parity: arrivals at the receiving end
	credit []*rma.Counter    // at the sending end: free slots at the receiver
}

func newWindow(nn int) window {
	return window{slot: make([][2][]byte, nn), arr: make([][2]*rma.Counter, nn), credit: make([]*rma.Counter, nn)}
}

// carve gives the link of node x its two n-byte slots and its counters.
func (w *window) carve(s *SRM, x, n int) {
	w.slot[x] = [2][]byte{s.slot(n), s.slot(n)}
	w.arr[x] = s.arrivals()
	w.credit[x] = s.counter(2, trace.ClassWaitCredit)
}

// arrivals returns a pair of arrival counters, one per slot parity.
func (s *SRM) arrivals() [2]*rma.Counter {
	return [2]*rma.Counter{s.counter(0, trace.ClassWaitArrive), s.counter(0, trace.ClassWaitArrive)}
}

// pipeTree is one inter-node tree of a chunk pipeline. Chunk k of a pipeline
// over nt trees rides tree k%nt in slot parity (k/nt)%2.
type pipeTree struct {
	emb    gEmbed
	window // reduce side: each child node sends to its parent

	// Broadcast side.
	bArr      [][2]*rma.Counter // per-parity chunks landed, at the child
	chunkDone *shm.Flag         // at the root master: chunks fully reduced; nil when no reduce precedes
}

// treeReduce is the chunk-pipelined tree reduce: each node master combines
// its node's SMP reduce of a chunk with the partials of its child nodes and
// forwards the result to its parent's slot or, at the root, finishes it in
// place. As a body, f.a is the master's own contribution and f.c the buffer
// the node partial is built in; trChunk is the top of the chunk loop, trKids
// the rest of chunk f.k with f.i counting child nodes and f.j recording that
// the chunk has a local partial.
type treeReduce struct {
	sp    []span
	rn    []*redNode // per-node SMP reduce machinery
	trees []pipeTree
	done  []*sim.Event // per node: the pipeline's broadcast helper finished; nil for Reduce
}

const (
	trChunk = iota
	trKids
)

func (u *treeReduce) step(x *exec, f *frame) {
	nx, k := x.nx, f.k
	if k == len(u.sp) {
		if u.done != nil {
			x.waitEvent(u.done[nx])
		}
		x.ret()
		return
	}
	nt := len(u.trees)
	tp, idx := &u.trees[k%nt], k/nt
	c := u.sp[k]
	tchunk, own := f.c[c.off:c.off+c.n], f.a[c.off:c.off+c.n]
	if f.pc == trChunk {
		f.pc, f.i, f.j = trKids, 0, 0
		if x.reduceLocal(u.rn[nx], k, tchunk, own) {
			f.j = 1
		}
		return
	}
	have := f.j != 0 || f.i > 0
	if kids := tp.emb.inter.Children[nx]; f.i < len(kids) {
		child := kids[f.i]
		f.i++
		x.waitcntr(tp.arr[child][idx%2], 1)
		if c.n > 0 {
			if have {
				own = nil
			}
			x.combine(tchunk, own, tp.slot[child][idx%2][:c.n])
		}
		// The child's next send in this tree is chunk k+nt; returning this
		// credit enables the one after that.
		if k+2*nt < len(u.sp) {
			x.putZero(tp.emb.masters[child], tp.credit[child])
		}
		return
	}
	if nx != tp.emb.inter.Root {
		// Forward the chunk partial to the parent's slot for this node.
		src := tchunk
		if !have {
			src = own // single-task leaf node: send straight from the user buffer
		}
		x.waitcntr(tp.credit[nx], 1)
		x.put(tp.emb.masters[tp.emb.inter.Parent[nx]], tp.slot[nx][idx%2][:c.n], src, tp.arr[nx][idx%2])
	} else {
		if !have && c.n > 0 {
			x.memcpy(tchunk, own) // reduce over a single task: the result is a plain copy
		}
		if tp.chunkDone != nil {
			x.set(tp.chunkDone, idx+1)
		}
	}
	f.pc, f.k = trChunk, k+1
}

// treeBcast is the broadcast down a tree of node masters that puts each chunk
// straight into the children's registered receive buffers, with the node's
// SMP broadcast pipelined behind the arrivals. As a body, f.a is the vector
// (the source at the root); tbChunk waits for chunk f.k, tbKids walks the
// child nodes with f.i, tbPut puts the chunk into child f.i.
type treeBcast struct {
	sp    []span
	pub   []publisher
	trees []pipeTree
	dst   [][]byte     // per node: the master's registered receive buffer
	ready []*sim.Event // per node: dst registered

	// helper is set when the body runs on a helper beside the master that
	// shares its endpoint: it waits for a chunk with waitValue, not waitcntr.
	helper bool
}

const (
	tbChunk = iota
	tbKids
	tbPut
)

func (d *treeBcast) step(x *exec, f *frame) {
	nx, k := x.nx, f.k
	if k == len(d.sp) {
		d.pub[nx].waitConsumed(x, k-1)
		x.ret()
		return
	}
	nt := len(d.trees)
	tp, idx := &d.trees[k%nt], k/nt
	kids := tp.emb.inter.Children[nx]
	c := d.sp[k]
	mine := f.a[c.off : c.off+c.n]
	switch f.pc {
	case tbChunk:
		switch {
		case nx == tp.emb.inter.Root:
			if tp.chunkDone != nil {
				x.waitGE(tp.chunkDone, idx+1)
			}
		case d.helper:
			x.waitValue(tp.bArr[nx][idx%2], 1)
		default:
			x.waitcntr(tp.bArr[nx][idx%2], 1) // chunk landed in f.a[c.off:]
		}
		f.pc, f.i = tbKids, 0
	case tbKids:
		if f.i < len(kids) {
			x.waitEvent(d.ready[kids[f.i]])
			f.pc = tbPut
			return
		}
		f.pc, f.k = tbChunk, k+1
		x.publish(d.pub[nx], k, mine, false)
	case tbPut:
		child := kids[f.i]
		x.put(tp.emb.masters[child], d.dst[child][c.off:c.off+c.n], mine, tp.bArr[child][idx%2])
		f.pc, f.i = tbKids, f.i+1
	}
}

// fold brings a node count that is not a power of two to the largest power of
// two below it, for the exchanges that need one: an extra master x >= pow
// hands its node partial to master x-pow before the exchange and receives the
// finished vector straight into its receive buffer after it. foldStep runs
// the pcs the families share; a family's own step runs fdReduce, which sets
// f.j once recv holds the node partial (until then it is send), and its
// exchange from fdExchange on, which ends by setting fdUnfold.
type fold struct {
	nodeStages                // with a single whole-vector chunk
	pow        int            // largest power of two <= participating nodes
	foldSlot   [][]byte       // extras fold their node partial in here
	foldArr    []*rma.Counter // fold-in arrived
	resArr     []*rma.Counter // finished vector landed back at an extra
}

const (
	fdReduce = iota
	fdFold
	fdUnfold // wait for the extra node's receive buffer
	fdReturn // put the result there, then distribute it on the node
	fdDone
	fdExchange
)

func newFold(g *Group, size int, ds dataspec) fold {
	nn := len(g.lay.nodes)
	fd := fold{
		nodeStages: newNodeStages(g, size, ds, chunks(size, max(size, 1))),
		pow:        1,
		foldSlot:   make([][]byte, nn),
		foldArr:    make([]*rma.Counter, nn),
		resArr:     make([]*rma.Counter, nn),
	}
	for fd.pow*2 <= nn {
		fd.pow *= 2
	}
	return fd
}

// carve gives node x its fold slot and counters; a family calls it first in
// its per-node loop.
func (fd *fold) carve(s *SRM, x int) {
	fd.foldSlot[x] = s.slot(fd.size)
	fd.foldArr[x] = s.counter(0, trace.ClassWaitArrive)
	fd.resArr[x] = s.counter(0, trace.ClassWaitArrive)
}

// partial returns the buffer that holds the node partial.
func (fd *fold) partial(f *frame) []byte {
	if f.j != 0 {
		return f.c
	}
	return f.a
}

// absorb combines src into the node partial, which from then on is recv.
func (fd *fold) absorb(x *exec, f *frame, src []byte) {
	if fd.size > 0 {
		own := f.a
		if f.j != 0 {
			own = nil
		}
		x.combine(f.c, own, src)
	}
	f.j = 1
}

func (fd *fold) foldStep(x *exec, f *frame) {
	g, nx, send, recv := x.g, x.nx, f.a, f.c
	extra := nx + fd.pow
	hasExtra := extra < len(g.lay.nodes)
	switch f.pc {
	case fdFold:
		if peer := nx - fd.pow; peer >= 0 {
			// Fold out: hand the node partial to the peer, then receive the
			// finished vector straight into recv.
			x.put(g.master(peer), fd.foldSlot[peer], fd.partial(f), fd.foldArr[peer])
			x.waitcntr(fd.resArr[nx], 1)
			f.pc = fdDone
			x.publish(fd.pub[nx], 0, recv, false)
			return
		}
		if hasExtra {
			x.waitcntr(fd.foldArr[nx], 1)
			fd.absorb(x, f, fd.foldSlot[nx])
		}
		f.pc = fdExchange
	case fdUnfold:
		if hasExtra {
			x.waitEvent(fd.resReady[extra])
		}
		f.pc = fdReturn
	case fdReturn:
		if hasExtra {
			// Return the full result to the folded-out node's recv buffer.
			x.put(g.master(extra), fd.resBuf[extra], fd.partial(f), fd.resArr[extra])
		}
		if f.j == 0 && fd.size > 0 {
			x.memcpy(recv, send) // single node, single task
		}
		f.pc = fdDone
		x.publish(fd.pub[nx], 0, recv, false)
	case fdDone:
		fd.pub[nx].waitConsumed(x, 0)
		x.ret()
	}
}
