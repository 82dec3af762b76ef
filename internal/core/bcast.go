package core

import (
	"fmt"

	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// bcastState is the shared state of one broadcast operation (§2.4, Fig. 4).
// All node-indexed slices below are indexed by the layout's participating
// node index, so the same machinery serves whole-world broadcasts and
// arbitrary task groups (the §5 extension).
type bcastState struct {
	g     *Group
	root  int
	size  int
	emb   gEmbed
	sp    []span
	large bool

	// Small-message path: two shared receive buffers per non-root node
	// with arrival counters at the node's master and buffer-free credit
	// counters held at the parent ("the parent alternates between the two
	// buffers and sends the data after verifying that the buffer is free").
	netBuf [][2][]byte
	arr    [][2]*rma.Counter // per node, per buffer parity ("two LAPI counters")
	freeC  [][2]*rma.Counter

	// Large-message path: user-buffer address exchange (Fig. 4 right).
	userBuf    [][]byte     // per node, registered by the node's master
	registered []*sim.Event // per node, fires at the parent after the address AM

	// SMP side (Fig. 3).
	pub []publisher
}

func newBcastState(g *Group, root, size int) *bcastState {
	s := g.s
	cfg := s.m.Cfg
	b := &bcastState{
		g:    g,
		root: root,
		size: size,
		emb:  g.embed(s.interKind("bcast", size), s.opt.IntraTree, root),
	}
	b.large = size > cfg.SRMBcastBufSize
	switch {
	case b.large:
		b.sp = chunks(size, cfg.SRMLargeChunk)
	case size > cfg.SRMPipelineMin:
		// 8 KB < size <= 64 KB: 4 KB chunks pipelined through the two
		// shared buffers (§2.4).
		b.sp = chunks(size, cfg.SRMSmallChunk)
	default:
		b.sp = chunks(size, cfg.SRMBcastBufSize)
	}
	nn := len(g.lay.nodes)
	b.netBuf = make([][2][]byte, nn)
	b.arr = make([][2]*rma.Counter, nn)
	b.freeC = make([][2]*rma.Counter, nn)
	b.userBuf = make([][]byte, nn)
	b.registered = make([]*sim.Event, nn)
	b.pub = make([]publisher, nn)
	chunkBytes := b.sp[0].n
	for x, nd := range g.lay.nodes {
		if !b.large {
			b.netBuf[x] = [2][]byte{s.slot(chunkBytes), s.slot(chunkBytes)}
			b.freeC[x] = [2]*rma.Counter{
				s.counter(1, trace.ClassWaitCredit),
				s.counter(1, trace.ClassWaitCredit),
			}
		}
		b.arr[x] = [2]*rma.Counter{
			s.counter(0, trace.ClassWaitArrive),
			s.counter(0, trace.ClassWaitArrive),
		}
		b.registered[x] = s.m.Env.NewEvent()
		b.pub[x] = s.newPublisher(nd, g.lay.li(b.emb.masters[x]), len(g.lay.local[x]), chunkBytes)
	}
	return b
}

// Bcast broadcasts buf (len(buf) equal on all ranks) from root. On the
// root, buf is the source; elsewhere it is overwritten with the data.
func (s *SRM) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	s.World().Bcast(p, rank, buf, root)
}

// BcastT is Bcast in continuation form.
func (s *SRM) BcastT(t *sim.Task, rank int, buf []byte, root int, kont func()) {
	s.World().BcastT(t, rank, buf, root, kont)
}

// Bcast broadcasts buf from the member rank root to every group member.
func (g *Group) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	g.BcastT(&p.Task, rank, buf, root, p.Resume())
	p.Park()
}

// BcastT is Bcast in continuation form; kont runs when it completes.
func (g *Group) BcastT(t *sim.Task, rank int, buf []byte, root int, kont func()) {
	x := g.s.exec(t, kont)
	g.bcast(x, rank, buf, root)
	x.run()
}

const (
	bcConsume = iota // non-master: f.k counts chunks
	bcSmall          // master, Fig. 4 left: top of the chunk loop
	bcSmallKids
	bcSmallDone
	bcLarge // master, Fig. 4 right: entry
	bcLargeChunk
	bcLargeKids
	bcLargePut
)

func (g *Group) bcast(x *exec, rank int, buf []byte, root int) {
	b := g.acquire(x, rank, func() any { return newBcastState(g, root, len(buf)) }).(*bcastState)
	if b.root != root || b.size != len(buf) {
		panic(fmt.Sprintf("core: Bcast mismatch at rank %d: root %d/%d size %d/%d",
			rank, root, b.root, len(buf), b.size))
	}
	pc := bcConsume
	if rank == b.emb.masters[x.nx] {
		x.quietNet(b.size)
		if pc = bcSmall; b.large {
			pc = bcLarge
		}
	}
	x.call(b, pc, 0, buf, nil)
}

func (b *bcastState) step(x *exec, f *frame) {
	g, nx, buf, k := b.g, x.nx, f.a, f.k
	pub := b.pub[nx]
	kids := b.emb.inter.Children[nx]
	atRoot := nx == b.emb.inter.Root
	masterEp := func(y int) *rma.Endpoint { return g.s.dom.Endpoint(b.emb.masters[y]) }
	if k == len(b.sp) {
		// Every chunk is out; masters that staged chunks through the node's
		// buffers wait until the last one has been consumed.
		if f.pc == bcLargeChunk || f.pc == bcSmall && atRoot {
			pub.waitConsumed(x, k-1)
		}
		x.ret()
		return
	}
	c := b.sp[k]
	parity := k % 2
	mine := buf[c.off : c.off+c.n]

	switch f.pc {
	case bcConsume:
		f.k++
		x.consume(pub, k, mine)

	// Small-message protocol: data travels between nodes through the two
	// shared buffers of each node.
	case bcSmall:
		if !atRoot {
			x.waitcntr(b.arr[nx][parity], 1) // the chunk lands in the shared buffer
		}
		f.pc, f.i = bcSmallKids, 0
	case bcSmallKids:
		src := mine
		if !atRoot {
			src = b.netBuf[nx][parity][:c.n]
			if f.i == 0 {
				// The chunk now occupies this parity's shared receive slot;
				// the span closes when the node is done with the buffer.
				x.begin(f, trace.ClassChunkSlot, "chunk:slot", c.n)
			}
		}
		// Send down the inter-node tree first (§2.4: "the received data is
		// sent down the tree, and then SMP broadcast is performed"), each
		// child once its buffer of this parity is free.
		if f.i < len(kids) {
			child := kids[f.i]
			f.i++
			x.waitcntr(b.freeC[child][parity], 1)
			x.put(masterEp(child), b.netBuf[child][parity][:c.n], src, b.arr[child][parity])
			return
		}
		// SMP broadcast of the chunk. From the root's private buffer this
		// stages through the Figure 3 buffers; from the shared receive
		// buffer it is exposed directly (no extra copy).
		f.pc = bcSmallDone
		x.publish(pub, k, src, !atRoot)
	case bcSmallDone:
		if !atRoot {
			// The master's own share leaves the shared buffer too.
			if c.n > 0 {
				x.memcpy(mine, b.netBuf[nx][parity][:c.n])
			}
			// Free the buffer to the parent once the node is done with it
			// (only while a chunk k+2 remains to reuse this parity).
			if k+2 < len(b.sp) {
				pub.waitConsumed(x, k)
				x.putZero(masterEp(b.emb.inter.Parent[nx]), b.freeC[nx][parity])
			}
			x.end()
		}
		f.pc, f.k = bcSmall, k+1

	// Large-message protocol: an address exchange, then puts straight into
	// user buffers, with the SMP broadcast pipelined behind the arrivals.
	case bcLarge:
		b.userBuf[nx] = buf
		if !atRoot {
			// Stage 1: send the user-buffer address to the inter-node parent.
			reg := b.registered[nx]
			x.am(masterEp(b.emb.inter.Parent[nx]), make([]byte, 8), func([]byte) { reg.Trigger() })
		}
		f.pc = bcLargeChunk
	case bcLargeChunk:
		if !atRoot {
			x.waitcntr(b.arr[nx][parity], 1) // chunk landed in buf[c.off:]
		}
		f.pc, f.i = bcLargeKids, 0
	case bcLargeKids:
		if f.i < len(kids) {
			x.waitEvent(b.registered[kids[f.i]])
			f.pc = bcLargePut
			return
		}
		f.pc, f.k = bcLargeChunk, k+1
		x.publish(pub, k, mine, false)
	case bcLargePut:
		child := kids[f.i]
		x.put(masterEp(child), b.userBuf[child][c.off:c.off+c.n], mine, b.arr[child][parity])
		f.pc, f.i = bcLargeKids, f.i+1
	}
}
