package core

import (
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// publisher is the per-node SMP broadcast machinery: the node's master
// publishes chunk after chunk and every other local task consumes them.
// Masters call the body at pubPublish (f.k chunk, f.a source, f.i != 0 when
// the source already is shared memory and is exposed as is), the others at
// pubConsume (f.k chunk, f.a destination); a frame of the body walks a node's
// flags in f.j. waitConsumed is the master's wait until the whole node has
// consumed chunk k, a flag a step: with *i walking the flags from 0, it issues
// the wait on the next and reports true, or reports false once the node has
// consumed chunk k, having issued what ends the wait. init builds the
// publisher of node for count local tasks, masterLocal the master, over
// buffers of bufSize bytes.
type publisher interface {
	stepper
	waitConsumed(x *exec, k int, i *int32) bool
	init(s *SRM, node, masterLocal, count, bufSize int)
}

const (
	pubPublish = iota
	pubExpose
	pubConsume
	pubCopyOut
	pubAck   // a consumer's flags after its copies
	pubEpoch // barrierPub: a consumer's second barrier
	pubStage // smpPub: a master's copy-in, once the buffer's last chunk is consumed
)

// publish and consume call the node's publisher for chunk k.
func (x *exec) publish(pub publisher, k int, src []byte, direct bool) {
	f := x.call(pub, pubPublish, k, src, nil)
	if direct {
		f.i = 1
	}
}

func (x *exec) consume(pub publisher, k int, dst []byte) { x.call(pub, pubConsume, k, dst, nil) }

// smpPub is the flat SMP broadcast of Figure 3: two shared buffers with a
// READY counter published by the master and per-task DONE flags, forming a
// two-slot pipeline. When the source of a chunk is already in shared memory
// (the inter-node receive buffers of the small-message broadcast), publish
// skips the copy-in — "the SMP broadcast recognizing that the data is in
// shared memory avoids unnecessary data copies" (§2.4).
type smpPub struct {
	masterLocal int
	buf         [2][]byte // shared staging buffers (A and B)
	cur         [2][]byte // slice local tasks read chunk parity from
	ready       *shm.Flag // chunks made readable (monotone count)
	done        flagSet   // per task: chunks consumed
}

func (pub *smpPub) init(s *SRM, node, masterLocal, count, bufSize int) {
	pub.masterLocal = masterLocal
	pub.ready = s.flag(node)
	pub.done = s.flags(node, count)
	pub.buf = [2][]byte{s.slot(bufSize), s.slot(bufSize)}
}

func (pub *smpPub) waitConsumed(x *exec, k int, i *int32) bool {
	return x.waitAt(pub.done, k+1, pub.masterLocal, false, i)
}

func (pub *smpPub) step(x *exec, f *frame) {
	k, parity := int(f.k), int(f.k)%2
	switch f.pc {
	case pubPublish:
		if len(pub.done) == 1 {
			x.ret() // no other task on the node
			return
		}
		x.begin(f, trace.ClassSmp, "smp:publish", len(f.a))
		f.pc = pubExpose
		if f.i == 0 {
			f.pc = pubStage
		}
	case pubStage:
		// Stage through the buffer of this parity, first waiting for its
		// previous chunk to be consumed (Figure 3 flag protocol).
		if k >= 2 && pub.waitConsumed(x, k-2, &f.j) {
			return
		}
		x.memcpy(pub.buf[parity][:len(f.a)], f.a)
		f.a = pub.buf[parity][:len(f.a)]
		f.pc = pubExpose
	case pubExpose:
		pub.cur[parity] = f.a
		x.set(pub.ready, k+1)
		x.end()
		x.ret()
	case pubConsume:
		x.begin(f, trace.ClassSmp, "smp:consume", len(f.a))
		x.waitGE(pub.ready, k+1)
		f.pc = pubCopyOut
	case pubCopyOut:
		// The copy ends the step: every consumer of a node copies at once.
		if len(f.a) > 0 {
			x.memcpy(f.a, pub.cur[parity][:len(f.a)])
		}
		f.pc = pubAck
	case pubAck:
		x.set(&pub.done[x.l], k+1)
		x.end()
		x.ret()
	}
}

// treePub is the tree-based SMP broadcast variant §2.2 measured and
// rejected ("this algorithm has achieved a much better performance than
// the tree-based algorithms" refers to the flat one). Kept for ablation
// A2. Each interior task owns a staging buffer; chunks flow down the
// intra-node tree, one copy per level on the critical path.
type treePub struct {
	tr   tree.Tree
	buf  [][2][]byte // per local task
	full []*shm.Flag // chunks available at this task's buffer
	ack  []flagSet   // per task, per child: chunks pulled by that child
}

// init fills the tables publishers cut for the node.
func (tp *treePub) init(s *SRM, node, masterLocal, count, bufSize int) {
	tp.tr = s.intraTree(count, masterLocal)
	for i := 0; i < count; i++ {
		tp.buf[i] = [2][]byte{s.slot(bufSize), s.slot(bufSize)}
		tp.full[i] = s.flag(node)
		tp.ack[i] = s.flags(node, len(tp.tr.Children[i]))
	}
}

// waitConsumed: the master's direct children acking chunk k implies their
// subtrees have copied it (children ack only after their own copy).
func (tp *treePub) waitConsumed(x *exec, k int, i *int32) bool {
	return x.waitAt(tp.ack[tp.tr.Root], k+1, -1, false, i)
}

func (tp *treePub) step(x *exec, f *frame) {
	k, parity, local, dst := int(f.k), int(f.k)%2, int(x.l), f.a
	switch f.pc {
	case pubPublish:
		root := tp.tr.Root
		if len(tp.full) == 1 {
			x.ret()
			return
		}
		if f.i != 0 {
			tp.buf[root][parity] = f.a // expose shared source without a copy
		} else {
			if k >= 2 && tp.waitConsumed(x, k-2, &f.j) {
				return
			}
			x.memcpy(tp.buf[root][parity][:len(f.a)], f.a)
		}
		// Children pull the chunk down the tree in their own consume.
		x.set(tp.full[root], k+1)
		x.ret()
	case pubConsume:
		x.waitGE(tp.full[tp.tr.Parent[local]], k+1)
		f.pc = pubCopyOut
	case pubCopyOut:
		// Pull chunk k from the parent's buffer into dst and, if this task
		// has children, into its own staging buffer.
		parent := tp.tr.Parent[local]
		src := tp.buf[parent][parity][:len(dst)]
		if len(tp.tr.Children[local]) > 0 {
			if k >= 2 && x.waitAt(tp.ack[local], k-1, -1, false, &f.j) {
				return
			}
			if len(dst) > 0 {
				x.memcpy(tp.buf[local][parity][:len(dst)], src)
				x.memcpy(dst, tp.buf[local][parity][:len(dst)])
			}
		} else if len(dst) > 0 {
			x.memcpy(dst, src)
		}
		f.pc = pubAck
	case pubAck:
		// Tell the children the chunk is in this task's buffer, and the
		// parent that this child is done with it.
		parent := tp.tr.Parent[local]
		if len(tp.tr.Children[local]) > 0 {
			x.set(tp.full[local], k+1)
		}
		for j, c := range tp.tr.Children[parent] {
			if c == local {
				x.set(&tp.ack[parent][j], k+1)
			}
		}
		x.ret()
	}
}

// barrierPub is the Sistare-style SMP broadcast the paper contrasts with
// in §4: access to the shared buffer is arbitrated by full SMP barriers
// (everyone synchronizes before the master overwrites a buffer and after
// the copy-out) instead of per-task flags. The stronger synchronization
// makes every chunk wait for the slowest task — the "susceptible to
// processor late arrivals" behaviour SRM's flag protocol avoids.
type barrierPub struct {
	masterLocal int
	buf         [2][]byte
	cur         [2][]byte
	epoch       *shm.Flag // barrier generation counter
	checkin     flagSet   // per-task arrival flags
}

func (pub *barrierPub) init(s *SRM, node, masterLocal, count, bufSize int) {
	pub.masterLocal = masterLocal
	pub.epoch = s.flag(node)
	pub.checkin = s.flags(node, count)
	pub.buf = [2][]byte{s.slot(bufSize), s.slot(bufSize)}
}

// barrier runs one flat SMP barrier among the node's tasks, master side, a
// check-in a step with *i walking them: it issues the next wait and reports
// true, or releases the tasks and reports false once all have checked in. The
// other tasks set their check-in flag and wait for the epoch.
func (pub *barrierPub) barrier(x *exec, gen int, i *int32) bool {
	if x.waitAt(pub.checkin, gen, pub.masterLocal, false, i) {
		return true
	}
	x.set(pub.epoch, gen)
	return false
}

// waitConsumed: one more barrier guarantees all reads of chunk k finished.
func (pub *barrierPub) waitConsumed(x *exec, k int, i *int32) bool {
	return len(pub.checkin) > 1 && pub.barrier(x, 2*k+3, i)
}

func (pub *barrierPub) step(x *exec, f *frame) {
	k, parity := int(f.k), int(f.k)%2
	switch f.pc {
	case pubPublish:
		if len(pub.checkin) == 1 {
			x.ret()
			return
		}
		// Barrier #1: nobody may still be reading this parity's buffer.
		if pub.barrier(x, 2*k+1, &f.j) {
			return
		}
		if f.i == 0 {
			x.memcpy(pub.buf[parity][:len(f.a)], f.a)
			f.a = pub.buf[parity][:len(f.a)]
		}
		f.pc, f.j = pubExpose, 0
	case pubExpose:
		pub.cur[parity] = f.a
		// Barrier #2: the buffer is full; everyone may read.
		if pub.barrier(x, 2*k+2, &f.j) {
			return
		}
		x.ret()
	case pubConsume:
		x.set(&pub.checkin[x.l], 2*k+1)
		x.waitGE(pub.epoch, 2*k+1)
		f.pc = pubEpoch
	case pubEpoch:
		x.set(&pub.checkin[x.l], 2*k+2)
		x.waitGE(pub.epoch, 2*k+2)
		f.pc = pubCopyOut
	case pubCopyOut:
		if len(f.a) > 0 {
			x.memcpy(f.a, pub.cur[parity][:len(f.a)])
		}
		// Check in to the buffer-free barrier (generation 2k+3); the master
		// collects it in the next publish or in waitConsumed.
		x.set(&pub.checkin[x.l], 2*k+3)
		x.ret()
	}
}

// smpNode is one node's record of the SMP broadcast an operation ends with
// and of the tree broadcast into its master: the node's publisher, which is
// flat unless Options picks a variant, the master's receive buffer, and the
// event of its registration.
type smpNode struct {
	pub   publisher
	flat  smpPub
	dst   []byte    // the master's receive buffer: a large broadcast's, an allreduce's result
	ready sim.Event // dst registered
}

// smpNodes returns the records of every node of g, each publisher of the
// variant Options picks (a variant's publishers in one array, the tree
// variant's tables cut from one table each); init builds each.
func (s *SRM) smpNodes(g *Group) []smpNode {
	nodes := make([]smpNode, len(g.lay.nodes))
	switch {
	case s.opt.TreeSMPBcst:
		tp, P := make([]treePub, len(nodes)), len(g.lay.members)
		buf, full, ack := make([][2][]byte, P), make([]*shm.Flag, P), make([]flagSet, P)
		for x := range tp {
			n := len(g.lay.local[x])
			tp[x].buf, tp[x].full, tp[x].ack = cut(&buf, n), cut(&full, n), cut(&ack, n)
			nodes[x].pub = &tp[x]
		}
	case s.opt.BarrierSMPBcst:
		bp := make([]barrierPub, len(nodes))
		for x := range bp {
			nodes[x].pub = &bp[x]
		}
	default:
		for x := range nodes {
			nodes[x].pub = &nodes[x].flat
		}
	}
	return nodes
}

// redNode is the per-node SMP reduce machinery of Figure 2: one shared slot
// (double-buffered for the chunk pipeline) per local task, with monotone
// full/free flags. Leaves copy their contribution in; interior tasks
// combine child slots with their own user buffer in place.
type redNode struct {
	tr   tree.Tree   // intra-node reduce tree, rooted at the master
	sp   spans       // the pipeline chunks of the vector being reduced
	slot [][2][]byte // per local task
	fl   flagSet     // per local task i: full at 2i, free at 2i+1
}

func (rn *redNode) full(i int) *shm.Flag { return &rn.fl[2*i] }
func (rn *redNode) free(i int) *shm.Flag { return &rn.fl[2*i+1] }

// redNodes returns the SMP reduce machinery of every node of g, their slot
// tables cut from one table; init builds each.
func redNodes(g *Group) []redNode {
	rn, slots := make([]redNode, len(g.lay.nodes)), make([][2][]byte, len(g.lay.members))
	for x := range rn {
		rn[x].slot = cut(&slots, len(g.lay.local[x]))
	}
	return rn
}

func (rn *redNode) init(s *SRM, node, masterLocal int, sp spans) {
	rn.tr, rn.sp = s.intraTree(len(rn.slot), masterLocal), sp
	rn.fl = s.flags(node, 2*len(rn.slot))
	for i := range rn.slot {
		// The master combines into its caller's buffer and has no slot; the
		// second buffer of a slot serves odd chunks only.
		if i != masterLocal {
			rn.slot[i][0] = s.slot(sp.at(0).n)
			if sp.len() > 1 {
				rn.slot[i][1] = s.slot(sp.at(0).n)
			}
		}
	}
}

const (
	redWorker = iota // f.a send: the whole non-master role over all chunks
	redWorkerKids
	redMaster // f.k chunk, f.a target, f.c own: the master's local combine
)

// reduceWorker runs a non-master task's role in the SMP reduce of send.
func (x *exec) reduceWorker(rn *redNode, send []byte) { x.call(rn, redWorker, 0, send, nil) }

// reduceLocal combines the master's local children's chunk-k slots with own
// into target. It reports false, calling nothing, when the master has no
// local children: the caller then uses own as the node partial.
func (x *exec) reduceLocal(rn *redNode, k int, target, own []byte) bool {
	if len(rn.tr.Children[rn.tr.Root]) == 0 {
		return false
	}
	x.call(rn, redMaster, k, target, own)
	return true
}

// reduceInto is reduceLocal for a master that needs the node partial in
// target: with no local children it copies own there.
func (x *exec) reduceInto(rn *redNode, k int, target, own []byte) {
	if !x.reduceLocal(rn, k, target, own) && len(target) > 0 {
		x.memcpy(target, own)
	}
}

func (rn *redNode) step(x *exec, f *frame) {
	local := int(x.l)
	if f.pc == redMaster {
		local = rn.tr.Root
	}
	kids, k := rn.tr.Children[local], int(f.k)
	target, own := f.a, f.c
	if f.pc != redMaster {
		if k == rn.sp.len() {
			x.ret()
			return
		}
		c := rn.sp.at(k)
		target, own = rn.slot[local][k%2][:c.n], f.a[c.off:c.off+c.n]
	}
	switch {
	case f.pc == redWorker:
		// Leaves copy chunks into their slot; interior tasks combine their
		// children's slots with their own data into theirs. Either way,
		// first wait for the parent to have consumed this parity's
		// previous chunk.
		x.waitGE(rn.free(local), k-1)
		f.pc = redWorkerKids
		if len(kids) == 0 && len(target) > 0 {
			x.memcpy(target, own) // the Figure 2 leaf copy
		}
	case int(f.i) < len(kids):
		// Fold child f.i's slot in, charging combine time, and mark the
		// slot free afterwards: the wait, the fold and the mark are a step
		// each (f.j), so neither the wait nor the fold holds a queue.
		c := kids[f.i]
		switch f.j {
		case 0:
			x.waitGE(rn.full(c), k+1)
			f.j = 1
		case 1:
			if len(target) > 0 {
				if f.i > 0 {
					own = nil
				}
				x.combine(target, own, rn.slot[c][k%2][:len(target)])
			}
			f.j = 2
		default:
			x.set(rn.free(c), k+1)
			f.i, f.j = f.i+1, 0
		}
	case f.pc == redMaster:
		x.ret()
	default:
		x.set(rn.full(local), k+1)
		f.pc, f.i, f.k = redWorker, 0, int32(k+1)
	}
}
