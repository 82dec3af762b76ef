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
	// The large-message path: the tree broadcast into the user buffers, which
	// the masters register with an address AM to their parent (Fig. 4
	// right). Its chunks and SMP side (Fig. 3) serve the small path too.
	treeBcast
	root  int
	size  int
	emb   gEmbed
	large bool

	// Small-message path: two shared receive buffers per non-root node
	// with arrival counters at the node's master and buffer-free credit
	// counters held at the parent ("the parent alternates between the two
	// buffers and sends the data after verifying that the buffer is free").
	netBuf [][2][]byte
	arr    [][2]*rma.Counter // per node, per buffer parity ("two LAPI counters")
	freeC  [][2]*rma.Counter
}

func newBcastState(g *Group, root, size int) *bcastState {
	s := g.s
	cfg := s.m.Cfg
	b := &bcastState{
		root: root,
		size: size,
		emb:  g.embed(s.interKind("bcast", size), root),
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
	b.pub, b.dst, b.ready = make([]publisher, nn), make([][]byte, nn), make([]*sim.Event, nn)
	chunkBytes := b.sp[0].n
	for x, nd := range g.lay.nodes {
		if !b.large {
			b.netBuf[x] = [2][]byte{s.slot(chunkBytes), s.slot(chunkBytes)}
			b.freeC[x] = [2]*rma.Counter{
				s.counter(1, trace.ClassWaitCredit),
				s.counter(1, trace.ClassWaitCredit),
			}
		}
		b.arr[x] = s.arrivals()
		b.ready[x] = s.m.Env.NewEvent()
		b.pub[x] = s.newPublisher(nd, g.lay.li(b.emb.masters[x]), len(g.lay.local[x]), chunkBytes)
	}
	b.trees = []pipeTree{{emb: b.emb, bArr: b.arr}}
	return b
}

// Bcast broadcasts buf (len(buf) equal on all ranks) from root. On the
// root, buf is the source; elsewhere it is overwritten with the data.
func (s *SRM) Bcast(p *sim.Proc, rank int, buf []byte, root int) {
	s.World().BcastT(&p.Task, rank, buf, root, p.Resume())
	p.Park()
}

// BcastT is Bcast in continuation form.
func (s *SRM) BcastT(t *sim.Task, rank int, buf []byte, root int, kont func()) {
	s.World().BcastT(t, rank, buf, root, kont)
}

// BcastT broadcasts buf from the member rank root to every group member;
// kont runs when it completes.
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
	bcSmallFree
)

func (g *Group) bcast(x *exec, rank int, buf []byte, root int) {
	b := g.acquire(x, rank, func() any { return newBcastState(g, root, len(buf)) }).(*bcastState)
	if b.root != root || b.size != len(buf) {
		panic(fmt.Sprintf("core: Bcast mismatch at rank %d: root %d/%d size %d/%d",
			rank, root, b.root, len(buf), b.size))
	}
	nx := x.nx
	if rank != b.emb.masters[nx] {
		x.call(b, bcConsume, 0, buf, nil)
		return
	}
	x.quietNet(b.size)
	if !b.large {
		x.call(b, bcSmall, 0, buf, nil)
		return
	}
	// Large message: register buf and, below the root, send its address to
	// the inter-node parent; then broadcast into the registered buffers.
	b.dst[nx] = buf
	if nx != b.emb.inter.Root {
		x.am(b.emb.masters[b.emb.inter.Parent[nx]], make([]byte, 8), b.ready[nx])
	}
	x.call(&b.treeBcast, tbChunk, 0, buf, nil)
}

func (b *bcastState) step(x *exec, f *frame) {
	nx, buf, k := x.nx, f.a, f.k
	pub := b.pub[nx]
	kids := b.emb.inter.Children[nx]
	atRoot := nx == b.emb.inter.Root
	if k == len(b.sp) {
		// Every chunk is out; masters that staged chunks through the node's
		// buffers wait until the last one has been consumed.
		if f.pc == bcSmall && atRoot {
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
			x.put(b.emb.masters[child], b.netBuf[child][parity][:c.n], src, b.arr[child][parity])
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
			f.pc = bcSmallFree
			return
		}
		f.pc, f.k = bcSmall, k+1
	case bcSmallFree:
		// Free the buffer to the parent once the node is done with it (only
		// while a chunk k+2 remains to reuse this parity).
		if k+2 < len(b.sp) {
			pub.waitConsumed(x, k)
			x.putZero(b.emb.masters[b.emb.inter.Parent[nx]], b.freeC[nx][parity])
		}
		x.end()
		f.pc, f.k = bcSmall, k+1
	}
}
