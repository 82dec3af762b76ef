package core

import (
	"fmt"

	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// bcastState is the shared state of one broadcast operation (§2.4, Fig. 4).
// Its node records are indexed by the layout's participating node index, so
// the same machinery serves whole-world broadcasts and arbitrary task groups
// (the §5 extension).
type bcastState struct {
	// The large-message path: the tree broadcast into the user buffers, which
	// the masters register with an address AM to their parent (Fig. 4
	// right). Its chunks and SMP side (Fig. 3) serve the small path too.
	treeBcast
	root  int
	size  int
	emb   gEmbed
	large bool

	// The one tree, whose links carry the small-message path too: two shared
	// receive buffers per non-root node (link.slot) with arrival counters at
	// the node's master (link.bArr, "two LAPI counters", which count the
	// large path's chunks as well) and buffer-free credit counters, one a
	// parity, held at the parent (link.credit: "the parent alternates between
	// the two buffers and sends the data after verifying that the buffer is
	// free").
	tree [1]pipeTree
}

func newBcastState(g *Group, root, size int) *bcastState {
	s := g.s
	cfg := &s.m.Cfg
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
	b.nodes, b.tree[0] = s.smpNodes(g), pipeTree{emb: b.emb, links: make([]link, len(g.lay.nodes))}
	chunkBytes := b.sp.at(0).n
	for x, nd := range g.lay.nodes {
		l := &b.tree[0].links[x]
		if !b.large {
			l.slot = [2][]byte{s.slot(chunkBytes), s.slot(chunkBytes)}
			l.credit = s.counters(2, 1, trace.ClassWaitCredit)
		}
		l.bArr = s.arrivals()
		b.nodes[x].ready.Init(s.m.Env)
		b.nodes[x].pub.init(s, nd, g.lay.li(b.emb.masters[x]), len(g.lay.local[x]), chunkBytes)
	}
	b.trees = b.tree[:]
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
	s.World().BcastT(t, rank, buf, root, sim.Func(kont))
}

// BcastT broadcasts buf from the member rank root to every group member;
// kont runs when it completes.
func (g *Group) BcastT(t *sim.Task, rank int, buf []byte, root int, kont sim.K) {
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
	bcDrain // the root's master, every chunk out: f.i walks the node's flags
)

func (g *Group) bcast(x *exec, rank int, buf []byte, root int) {
	b := g.acquire(x, rank, func() any { return newBcastState(g, root, len(buf)) }).(*bcastState)
	if b.root != root || b.size != len(buf) {
		panic(fmt.Sprintf("core: Bcast mismatch at rank %d: root %d/%d size %d/%d",
			rank, root, b.root, len(buf), b.size))
	}
	nx := int(x.nx)
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
	b.nodes[nx].dst = buf
	if nx != b.emb.inter.Root {
		x.am(b.emb.masters[b.emb.inter.Parent[nx]], make([]byte, 8), &b.nodes[nx].ready)
	}
	x.call(&b.treeBcast, tbChunk, 0, buf, nil)
}

// stage: a non-master consumes chunk f.k-1 into its share of buf.
func (b *bcastState) stage(x *exec, f *frame) (stepper, []byte, []byte) {
	if f.pc != bcConsume {
		return nil, nil, nil
	}
	c := b.sp.at(int(f.k) - 1)
	return b.nodes[x.nx].pub, f.a[c.off : c.off+c.n], nil
}

func (b *bcastState) step(x *exec, f *frame) {
	nx, buf, k := int(x.nx), f.a, int(f.k)
	pub, links := b.nodes[nx].pub, b.tree[0].links
	kids := b.emb.inter.Children[nx]
	atRoot := nx == b.emb.inter.Root
	if k == b.sp.len() {
		// Every chunk is out; masters that staged chunks through the node's
		// buffers wait until the last one has been consumed.
		if f.pc == bcSmall && atRoot {
			f.pc, f.i = bcDrain, 0
		}
		if f.pc == bcDrain && pub.waitConsumed(x, k-1, &f.i) {
			return
		}
		x.ret()
		return
	}
	c := b.sp.at(k)
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
			x.waitcntr(&links[nx].bArr[parity], 1) // the chunk lands in the shared buffer
		}
		f.pc, f.i = bcSmallKids, 0
	case bcSmallKids:
		src := mine
		if !atRoot {
			src = links[nx].slot[parity][:c.n]
			if f.i == 0 {
				// The chunk now occupies this parity's shared receive slot;
				// the span closes when the node is done with the buffer.
				x.begin(f, trace.ClassChunkSlot, "chunk:slot", c.n)
			}
		}
		// Send down the inter-node tree first (§2.4: "the received data is
		// sent down the tree, and then SMP broadcast is performed"), each
		// child once its buffer of this parity is free.
		if int(f.i) < len(kids) {
			child := kids[f.i]
			f.i++
			x.waitcntr(&links[child].credit[parity], 1)
			x.put(b.emb.masters[child], links[child].slot[parity][:c.n], src, &links[child].bArr[parity])
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
				x.memcpy(mine, links[nx].slot[parity][:c.n])
			}
			f.pc, f.i = bcSmallFree, 0
			return
		}
		f.pc, f.k = bcSmall, int32(k+1)
	case bcSmallFree:
		// Free the buffer to the parent once the node is done with it (only
		// while a chunk k+2 remains to reuse this parity).
		if k+2 < b.sp.len() {
			if pub.waitConsumed(x, k, &f.i) {
				return
			}
			x.putZero(b.emb.masters[b.emb.inter.Parent[nx]], &links[nx].credit[parity])
		}
		x.end()
		f.pc, f.k = bcSmall, int32(k+1)
	}
}
