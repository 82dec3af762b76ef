package core

import (
	"srmcoll/internal/shm"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// publisher is the per-node SMP broadcast machinery: the node's master
// publishes chunk after chunk and every other local task consumes them.
// Masters call the body at pubPublish (f.k chunk, f.a source, f.i != 0 when
// the source already is shared memory and is exposed as is), the others at
// pubConsume (f.k chunk, f.a destination). waitConsumed issues the master's
// wait until the whole node has consumed chunk k.
type publisher interface {
	stepper
	waitConsumed(x *exec, k int)
}

const (
	pubPublish = iota
	pubExpose
	pubConsume
	pubCopyOut
	pubAck   // treePub: a consumer's flags after its copies
	pubEpoch // barrierPub: a consumer's second barrier
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

func (s *SRM) newSmpPub(node, masterLocal, count, bufSize int) *smpPub {
	pub := &smpPub{
		masterLocal: masterLocal,
		ready:       s.flag(node),
		done:        s.flags(node, count),
	}
	pub.buf[0] = s.slot(bufSize)
	pub.buf[1] = s.slot(bufSize)
	return pub
}

func (pub *smpPub) waitConsumed(x *exec, k int) { x.waitAllGE(&pub.done, k+1, pub.masterLocal) }

func (pub *smpPub) step(x *exec, f *frame) {
	k, parity := f.k, f.k%2
	switch f.pc {
	case pubPublish:
		if len(pub.done) == 1 {
			x.ret() // no other task on the node
			return
		}
		x.begin(f, trace.ClassSmp, "smp:publish", len(f.a))
		if f.i == 0 {
			// Stage through the buffer of this parity, first waiting for
			// its previous chunk to be consumed (Figure 3 flag protocol).
			if k >= 2 {
				pub.waitConsumed(x, k-2)
			}
			x.memcpy(pub.buf[parity][:len(f.a)], f.a)
			f.a = pub.buf[parity][:len(f.a)]
		}
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
		if len(f.a) > 0 {
			x.memcpy(f.a, pub.cur[parity][:len(f.a)])
		}
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

func (s *SRM) newTreePub(node, masterLocal, count, bufSize int) *treePub {
	tp := &treePub{
		tr:   s.intraTree(count, masterLocal),
		buf:  make([][2][]byte, count),
		full: make([]*shm.Flag, count),
		ack:  make([]flagSet, count),
	}
	for i := 0; i < count; i++ {
		tp.buf[i] = [2][]byte{s.slot(bufSize), s.slot(bufSize)}
		tp.full[i] = s.flag(node)
		tp.ack[i] = s.flags(node, len(tp.tr.Children[i]))
	}
	return tp
}

// waitConsumed: the master's direct children acking chunk k implies their
// subtrees have copied it (children ack only after their own copy).
func (tp *treePub) waitConsumed(x *exec, k int) { x.waitAllGE(&tp.ack[tp.tr.Root], k+1, -1) }

func (tp *treePub) step(x *exec, f *frame) {
	k, parity, local, dst := f.k, f.k%2, x.l, f.a
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
			if k >= 2 {
				tp.waitConsumed(x, k-2)
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
			if k >= 2 {
				x.waitAllGE(&tp.ack[local], k-1, -1)
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

func (s *SRM) newBarrierPub(node, masterLocal, count, bufSize int) *barrierPub {
	pub := &barrierPub{
		masterLocal: masterLocal,
		epoch:       s.flag(node),
		checkin:     s.flags(node, count),
	}
	pub.buf[0] = s.slot(bufSize)
	pub.buf[1] = s.slot(bufSize)
	return pub
}

// barrier runs one flat SMP barrier among the node's tasks, master side;
// the other tasks set their check-in flag and wait for the epoch.
func (pub *barrierPub) barrier(x *exec, gen int) {
	x.waitAllGE(&pub.checkin, gen, pub.masterLocal)
	x.set(pub.epoch, gen)
}

// waitConsumed: one more barrier guarantees all reads of chunk k finished.
func (pub *barrierPub) waitConsumed(x *exec, k int) {
	if len(pub.checkin) > 1 {
		pub.barrier(x, 2*k+3)
	}
}

func (pub *barrierPub) step(x *exec, f *frame) {
	k, parity := f.k, f.k%2
	switch f.pc {
	case pubPublish:
		if len(pub.checkin) == 1 {
			x.ret()
			return
		}
		// Barrier #1: nobody may still be reading this parity's buffer.
		pub.barrier(x, 2*k+1)
		if f.i == 0 {
			x.memcpy(pub.buf[parity][:len(f.a)], f.a)
			f.a = pub.buf[parity][:len(f.a)]
		}
		f.pc = pubExpose
	case pubExpose:
		pub.cur[parity] = f.a
		// Barrier #2: the buffer is full; everyone may read.
		pub.barrier(x, 2*k+2)
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

// newPublisher picks the SMP broadcast variant per Options. count is the
// number of participating tasks on the node; masterLocal indexes them.
func (s *SRM) newPublisher(node, masterLocal, count, bufSize int) publisher {
	switch {
	case s.opt.TreeSMPBcst:
		return s.newTreePub(node, masterLocal, count, bufSize)
	case s.opt.BarrierSMPBcst:
		return s.newBarrierPub(node, masterLocal, count, bufSize)
	default:
		return s.newSmpPub(node, masterLocal, count, bufSize)
	}
}

// redNode is the per-node SMP reduce machinery of Figure 2: one shared slot
// (double-buffered for the chunk pipeline) per local task, with monotone
// full/free flags. Leaves copy their contribution in; interior tasks
// combine child slots with their own user buffer in place.
type redNode struct {
	tr   tree.Tree // intra-node reduce tree, rooted at the master
	sp   []span    // the pipeline chunks of the vector being reduced
	slot [][2][]byte
	full []*shm.Flag
	free []*shm.Flag
}

func (s *SRM) newRedNode(node, masterLocal, count int, sp []span) *redNode {
	rn := &redNode{
		tr:   s.intraTree(count, masterLocal),
		sp:   sp,
		slot: make([][2][]byte, count),
		full: make([]*shm.Flag, count),
		free: make([]*shm.Flag, count),
	}
	for i := 0; i < count; i++ {
		// The master combines into its caller's buffer and has no slot; the
		// second buffer of a slot serves odd chunks only.
		if i != masterLocal {
			rn.slot[i][0] = s.slot(sp[0].n)
			if len(sp) > 1 {
				rn.slot[i][1] = s.slot(sp[0].n)
			}
		}
		rn.full[i] = s.flag(node)
		rn.free[i] = s.flag(node)
	}
	return rn
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
	local := x.l
	if f.pc == redMaster {
		local = rn.tr.Root
	}
	kids, k := rn.tr.Children[local], f.k
	target, own := f.a, f.c
	if f.pc != redMaster {
		if k == len(rn.sp) {
			x.ret()
			return
		}
		c := rn.sp[k]
		target, own = rn.slot[local][k%2][:c.n], f.a[c.off:c.off+c.n]
	}
	switch {
	case f.pc == redWorker:
		// Leaves copy chunks into their slot; interior tasks combine their
		// children's slots with their own data into theirs. Either way,
		// first wait for the parent to have consumed this parity's
		// previous chunk.
		x.waitGE(rn.free[local], k-1)
		f.pc = redWorkerKids
		if len(kids) == 0 && len(target) > 0 {
			x.memcpy(target, own) // the Figure 2 leaf copy
		}
	case f.i < len(kids):
		// Fold child f.i's slot in, charging combine time, and mark the
		// slot free afterwards.
		c := kids[f.i]
		x.waitGE(rn.full[c], k+1)
		if len(target) > 0 {
			if f.i > 0 {
				own = nil
			}
			x.combine(target, own, rn.slot[c][k%2][:len(target)])
		}
		x.set(rn.free[c], k+1)
		f.i++
	case f.pc == redMaster:
		x.ret()
	default:
		x.set(rn.full[local], k+1)
		f.pc, f.i, f.k = redWorker, 0, k+1
	}
}
