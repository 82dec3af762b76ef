package core

// ringState is the shared state of one ring allreduce (AlgRing): an SMP
// reduce of the whole vector on each node, a reduce-scatter pass followed
// by an allgather pass around the ring of node masters, then an SMP
// broadcast of the result. The vector is cut into one element-aligned
// block per node; every master sends 2(nn-1) blocks to its right
// neighbour, so the per-master traffic is bandwidth-optimal regardless of
// node count. Receives are staged in the credit window the Figure-5
// pipeline uses between child and parent, each master sending to its right
// neighbour; a block rides slot parity st%2 at ring step st.
type ringState struct {
	nodeStages        // with a single whole-vector chunk
	links      []link // by the receiving master
	g          *Group
	blk        []span // one element-aligned vector block per node
}

func newRingState(g *Group, size int, ds dataspec) *ringState {
	s := g.s
	a := &ringState{g: g, nodeStages: newNodeStages(g, size, ds, chunks(size, max(size, 1)))}
	nn := len(g.lay.nodes)
	esize := ds.dt.Size()
	elems := size / esize
	base, rem := elems/nn, elems%nn
	a.blk = make([]span, nn)
	off, maxBlk := 0, 0
	for i := 0; i < nn; i++ {
		n := base
		if i < rem {
			n++
		}
		a.blk[i] = span{off * esize, n * esize}
		off += n
		if n*esize > maxBlk {
			maxBlk = n * esize
		}
	}
	a.links = make([]link, nn)
	for x := range a.links {
		a.links[x].carve(s, maxBlk)
	}
	return a
}

// stepBlocks returns which vector block master x sends and receives at
// ring step st. The reduce-scatter pass (first nn-1 steps) walks blocks
// backwards so after it x holds the fully reduced block (x+1) mod nn; the
// allgather pass circulates the reduced blocks the same way.
func (a *ringState) stepBlocks(x, st int) (sendIdx, recvIdx int) {
	nn := len(a.g.lay.nodes)
	if st < nn-1 {
		return ((x-st)%nn + nn) % nn, ((x-st-1)%nn + nn) % nn
	}
	s2 := st - (nn - 1)
	return ((x+1-s2)%nn + nn) % nn, ((x-s2)%nn + nn) % nn
}

// step is the master's role: reduce the node contributions into recv, run
// the 2(nn-1)-step ring exchange (f.i counts steps), distribute the result.
// Each ring step sends one block right and waits for the matching block from
// the left (pc 1), then combines (reduce-scatter half) or copies it in
// (allgather half) and recredits the left neighbour (pc 3).
func (a *ringState) step(x *exec, f *frame) {
	g, nx, send, recv := a.g, int(x.nx), f.a, f.c
	nn := len(g.lay.nodes)
	steps := 2 * (nn - 1)
	switch {
	case f.pc == 0:
		f.pc = 1
		x.reduceInto(&a.rn[nx], 0, recv, send)
	case f.pc == 1 && int(f.i) < steps:
		st, right := int(f.i), (nx+1)%nn
		sendIdx, _ := a.stepBlocks(nx, st)
		sb := a.blk[sendIdx]
		x.waitcntr(&a.links[nx].credit[0], 1)
		x.put(g.master(right), a.links[right].slot[st%2][:sb.n], recv[sb.off:sb.off+sb.n], &a.links[right].arr[st%2])
		x.waitcntr(&a.links[nx].arr[st%2], 1)
		f.pc = 3
	case f.pc == 3:
		st, left := int(f.i), (nx+nn-1)%nn
		f.pc, f.i = 1, int32(st+1)
		_, recvIdx := a.stepBlocks(nx, st)
		rb := a.blk[recvIdx]
		src, dst := a.links[nx].slot[st%2][:rb.n], recv[rb.off:rb.off+rb.n]
		switch {
		case rb.n == 0:
		case st < nn-1:
			x.combine(dst, nil, src)
		default:
			x.memcpy(dst, src)
		}
		if st+2 < steps {
			x.putZero(g.master(left), &a.links[left].credit[0])
		}
	case f.pc == 1:
		f.pc = 2
		x.publish(a.nodes[nx].pub, 0, recv, false)
	default:
		if a.nodes[nx].pub.waitConsumed(x, 0, &f.j) {
			return
		}
		x.ret()
	}
}
