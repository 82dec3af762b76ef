package core

import (
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
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

// link is one node's end of the two-deep credit window of §2.4 on the links
// between node masters: the receiving end of a link holds two slots for it,
// used by parity, with an arrival counter each; the sending end holds a credit
// counter, initially 2, which the receiver replenishes with a zero-byte put
// once it has drained a slot. A table of links is indexed by the layout's
// participating node index of one end of the link: the sending child in a
// tree, the receiving master in the ring. A tree's broadcast side adds the
// arrivals of its chunks at the child.
type link struct {
	slot   [2][]byte     // at the receiving end
	arr    []rma.Counter // per parity: arrivals at the receiving end
	credit []rma.Counter // at the sending end: free slots at the receiver (one a parity in the small broadcast)
	bArr   []rma.Counter // per parity: broadcast chunks landed, at the child
}

// carve gives the link its two n-byte slots and its counters.
func (l *link) carve(s *SRM, n int) {
	l.slot = [2][]byte{s.slot(n), s.slot(n)}
	l.arr = s.arrivals()
	l.credit = s.counters(1, 2, trace.ClassWaitCredit)
}

// arrivals returns a pair of arrival counters, one per slot parity.
func (s *SRM) arrivals() []rma.Counter { return s.counters(2, 0, trace.ClassWaitArrive) }

// pipeTree is one inter-node tree of a chunk pipeline. Chunk k of a pipeline
// over nt trees rides tree k%nt in slot parity (k/nt)%2.
type pipeTree struct {
	emb       gEmbed
	links     []link    // by node: the link to its parent
	chunkDone *shm.Flag // at the root master: chunks fully reduced; nil when no reduce precedes
}

// treeReduce is the chunk-pipelined tree reduce: each node master combines
// its node's SMP reduce of a chunk with the partials of its child nodes and
// forwards the result to its parent's slot or, at the root, finishes it in
// place. As a body, f.a is the master's own contribution and f.c the buffer
// the node partial is built in; trChunk is the top of the chunk loop, trKids
// the rest of chunk f.k with f.i counting child nodes and f.j recording that
// the chunk has a local partial.
type treeReduce struct {
	sp    spans
	rn    []redNode // per-node SMP reduce machinery
	trees []pipeTree
	done  []sim.Event // per node: the pipeline's broadcast helper finished; nil for Reduce
}

const (
	trChunk = iota
	trKids
)

func (u *treeReduce) step(x *exec, f *frame) {
	nx, k := int(x.nx), int(f.k)
	if k == u.sp.len() {
		if u.done != nil {
			x.waitEvent(&u.done[nx])
		}
		x.ret()
		return
	}
	nt := len(u.trees)
	tp, idx := &u.trees[k%nt], k/nt
	c := u.sp.at(k)
	tchunk, own := f.c[c.off:c.off+c.n], f.a[c.off:c.off+c.n]
	if f.pc == trChunk {
		f.pc, f.i, f.j = trKids, 0, 0
		if x.reduceLocal(&u.rn[nx], k, tchunk, own) {
			f.j = 1
		}
		return
	}
	have := f.j != 0 || f.i > 0
	if kids := tp.emb.inter.Children[nx]; int(f.i) < len(kids) {
		child := kids[f.i]
		f.i++
		up := &tp.links[child]
		x.waitcntr(&up.arr[idx%2], 1)
		if c.n > 0 {
			if have {
				own = nil
			}
			x.combine(tchunk, own, up.slot[idx%2][:c.n])
		}
		// The child's next send in this tree is chunk k+nt; returning this
		// credit enables the one after that.
		if k+2*nt < u.sp.len() {
			x.putZero(tp.emb.masters[child], &up.credit[0])
		}
		return
	}
	if nx != tp.emb.inter.Root {
		// Forward the chunk partial to the parent's slot for this node.
		src := tchunk
		if !have {
			src = own // single-task leaf node: send straight from the user buffer
		}
		up := &tp.links[nx]
		x.waitcntr(&up.credit[0], 1)
		x.put(tp.emb.masters[tp.emb.inter.Parent[nx]], up.slot[idx%2][:c.n], src, &up.arr[idx%2])
	} else {
		if !have && c.n > 0 {
			x.memcpy(tchunk, own) // reduce over a single task: the result is a plain copy
		}
		if tp.chunkDone != nil {
			x.set(tp.chunkDone, idx+1)
		}
	}
	f.pc, f.k = trChunk, int32(k+1)
}

// treeBcast is the broadcast down a tree of node masters that puts each chunk
// straight into the children's registered receive buffers, with the node's
// SMP broadcast pipelined behind the arrivals. As a body, f.a is the vector
// (the source at the root); tbChunk waits for chunk f.k, tbKids walks the
// child nodes with f.i, tbPut puts the chunk into child f.i.
type treeBcast struct {
	sp    spans
	nodes []smpNode // the publishers, and the masters' registered receive buffers
	trees []pipeTree

	// helper is set when the body runs on a helper beside the master that
	// shares its endpoint: it waits for a chunk with waitValue, not waitcntr.
	helper bool
}

const (
	tbChunk = iota
	tbKids
	tbPut
	tbDrain // every chunk is out: wait for the last to be consumed, f.i walking the node's flags
)

func (d *treeBcast) step(x *exec, f *frame) {
	nx, k := int(x.nx), int(f.k)
	if k == d.sp.len() {
		if f.pc != tbDrain {
			f.pc, f.i = tbDrain, 0
		}
		if d.nodes[nx].pub.waitConsumed(x, k-1, &f.i) {
			return
		}
		x.ret()
		return
	}
	nt := len(d.trees)
	tp, idx := &d.trees[k%nt], k/nt
	kids := tp.emb.inter.Children[nx]
	c := d.sp.at(k)
	mine := f.a[c.off : c.off+c.n]
	switch f.pc {
	case tbChunk:
		switch {
		case nx == tp.emb.inter.Root:
			if tp.chunkDone != nil {
				x.waitGE(tp.chunkDone, idx+1)
			}
		case d.helper:
			x.waitValue(&tp.links[nx].bArr[idx%2], 1)
		default:
			x.waitcntr(&tp.links[nx].bArr[idx%2], 1) // chunk landed in f.a[c.off:]
		}
		f.pc, f.i = tbKids, 0
	case tbKids:
		if int(f.i) < len(kids) {
			x.waitEvent(&d.nodes[kids[f.i]].ready)
			f.pc = tbPut
			return
		}
		f.pc, f.k = tbChunk, int32(k+1)
		x.publish(d.nodes[nx].pub, k, mine, false)
	case tbPut:
		child := kids[f.i]
		x.put(tp.emb.masters[child], d.nodes[child].dst[c.off:c.off+c.n], mine, &tp.links[child].bArr[idx%2])
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
//
// The fold carves the family's exchange slots and arrival counters with its
// own, a row a node: slot column 0 is the fold slot, column 1+r the slot of
// exchange round r; the counter columns are below, then per counters a round.
type fold struct {
	nodeStages                  // with a single whole-vector chunk
	pow, rounds int             // largest power of two <= participating nodes, its log2
	slot        grid[[]byte]    // extras fold their node partial in at column 0
	cn          [][]rma.Counter // arrivals
}

const (
	cnFold  = iota // fold-in arrived
	cnRes          // finished vector landed back at an extra
	cnRound        // the first counter of the family's exchange rounds
)

const (
	fdReduce = iota
	fdFold
	fdUnfold // wait for the extra node's receive buffer
	fdReturn // put the result there, then distribute it on the node
	fdDone
	fdExchange
)

// newFold builds a family's state around the fold: the node stages, then per
// node the fold slot, a slot of slotSize(r) bytes a round and per counters a
// round.
func newFold(g *Group, size int, ds dataspec, per int, slotSize func(r int) int) fold {
	s, nn := g.s, len(g.lay.nodes)
	fd := fold{nodeStages: newNodeStages(g, size, ds, chunks(size, max(size, 1))), pow: 1}
	for fd.pow*2 <= nn {
		fd.pow *= 2
	}
	fd.rounds = tree.Log2Ceil(fd.pow)
	fd.slot, fd.cn = newGrid[[]byte](nn, 1+fd.rounds), make([][]rma.Counter, nn)
	for x := range nn {
		fd.cn[x] = s.counters(cnRound+per*fd.rounds, 0, trace.ClassWaitArrive)
		*fd.slot.at(x, 0) = s.slot(size)
		for r := range fd.rounds {
			*fd.slot.at(x, 1+r) = s.slot(slotSize(r))
		}
	}
	return fd
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

// stage: a master reduces its node's contributions into recv, and publishes
// the result from there.
func (fd *fold) stage(x *exec, f *frame) (stepper, []byte, []byte) {
	switch f.pc {
	case fdFold:
		return &fd.rn[x.nx], f.c, f.a
	case fdDone:
		return fd.nodes[x.nx].pub, f.c, nil
	}
	return nil, nil, nil
}

func (fd *fold) foldStep(x *exec, f *frame) {
	g, nx, send, recv := x.g, int(x.nx), f.a, f.c
	extra := nx + fd.pow
	hasExtra := extra < len(g.lay.nodes)
	switch f.pc {
	case fdFold:
		if peer := nx - fd.pow; peer >= 0 {
			// Fold out: hand the node partial to the peer, then receive the
			// finished vector straight into recv.
			x.put(g.master(peer), *fd.slot.at(peer, 0), fd.partial(f), &fd.cn[peer][cnFold])
			x.waitcntr(&fd.cn[nx][cnRes], 1)
			f.pc, f.i = fdDone, 0
			x.publish(fd.nodes[nx].pub, 0, recv, false)
			return
		}
		if hasExtra {
			x.waitcntr(&fd.cn[nx][cnFold], 1)
			fd.absorb(x, f, *fd.slot.at(nx, 0))
		}
		f.pc = fdExchange
	case fdUnfold:
		if hasExtra {
			x.waitEvent(&fd.nodes[extra].ready)
		}
		f.pc = fdReturn
	case fdReturn:
		if hasExtra {
			// Return the full result to the folded-out node's recv buffer.
			x.put(g.master(extra), fd.nodes[extra].dst, fd.partial(f), &fd.cn[extra][cnRes])
		}
		if f.j == 0 && fd.size > 0 {
			x.memcpy(recv, send) // single node, single task
		}
		f.pc, f.i = fdDone, 0
		x.publish(fd.nodes[nx].pub, 0, recv, false)
	case fdDone:
		if fd.nodes[nx].pub.waitConsumed(x, 0, &f.i) {
			return
		}
		x.ret()
	}
}
