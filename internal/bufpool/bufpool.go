// Package bufpool provides size-classed byte-buffer pooling for payload
// memory inside a simulation: transient copies (put payload snapshots,
// eager-send copies) and the slot and staging buffers of a collective
// operation. One simulation uses a pool at a time and the DES runs one process
// at a time, so Get and Put take no lock and recycling order is deterministic.
// The memory behind a pool outlives the simulation: a run checks a pool out of
// the process-level reserve and hands it back rewound (reserve.go).
//
// Determinism argument: memory from Get is never cleared, so its users write
// every byte before anything reads it — a snapshot is overwritten with
// exactly n payload bytes, a protocol slot is filled by the copy, put or
// combine that precedes the flag or counter its reader waits on — and
// readers only read those bytes (len, not cap). Stale bytes are unreachable,
// so reusing a buffer cannot change any simulated outcome — only the number
// of host allocations. The argument never asks whose stale bytes they are, so
// it holds across runs as it holds within one: which spare a run is handed,
// and what an earlier run (of another cluster, on another goroutine) left in
// it, decides addresses and unread bytes and nothing else. The Poison hook
// turns a violation into a failed payload check.
//
// The package also holds the simulation's record memory (chunks.go): Chunks
// carves tasks, queue items, put frames, executors, flags and counters from
// uniform slabs that live in the same reserve, one stack per record type. There
// the argument is the opposite one — a record is read before it is written, so
// a slab is handed out all zero: its owner returns it only once every value
// carved from it is dead (a run that ended with a result, an operation every
// member completed), cleared where it was carved, and an owner that cannot
// vouch for that leaves its slabs to the collector.
package bufpool

import "math/bits"

const (
	// minClass is the smallest pooled class; tiny control payloads (flag
	// words, header words) round up to it.
	minClass = 64
	// maxClass bounds pooling at the largest message the experiment grid
	// uses (8 MB). Larger requests are allocated directly and dropped on
	// Put rather than retained.
	maxClass = 8 << 20

	// blockSize is what a pool takes from the allocator at a time for the
	// classes below it. A class of blockSize or more gets a buffer of its own.
	blockSize = 1 << 20
	// firstBlock is the size of the first block of a pool that holds none;
	// each later one is twice the one before until blockSize is reached: a run
	// over eight ranks that found the reserve empty must not clear a megabyte
	// for its few kilobytes.
	firstBlock = 4 << 10
)

// Pool recycles byte slices in power-of-two size classes. The zero value is
// not usable; call New or CheckOut.
type Pool struct {
	classes [][][]byte // per-class free lists of this run; index by classIndex

	// Where a free-list miss is served from, and what outlives the run:
	// blocks for the classes below blockSize, carved front to back whatever
	// the class, and the buffers of each class from blockSize up.
	blocks lane
	cur    []byte // the part of the newest drawn block not yet handed out
	own    []lane // by classIndex - classIndex(blockSize)

	gets   uint64
	hits   uint64
	out    int // buffers handed out and not yet returned
	poison bool

	age  int // hand-backs since the pool last shed
	idle int // hand-backs of other pools it has lain in the reserve through
}

// lane is memory a pool keeps from run to run, in the order every run draws
// it: a run that needs k pieces uses the first k, so how far the greediest
// recent run got is how many are worth keeping.
type lane struct {
	mem  [][]byte
	next int // pieces drawn by the current run
	peak int // the most a run has drawn since the pool last shed
}

// draw returns the lane's next piece, making one of n bytes once the run has
// drawn all the lane holds.
func (l *lane) draw(n int) []byte {
	if l.next == len(l.mem) {
		l.mem = append(l.mem, make([]byte, n))
	}
	b := l.mem[l.next]
	l.next++
	return b
}

// rewind makes every piece available to the next run.
func (l *lane) rewind() {
	l.peak = max(l.peak, l.next)
	l.next = 0
}

// shed drops the pieces no run has drawn since the last call.
func (l *lane) shed() {
	clear(l.mem[l.peak:])
	l.mem = l.mem[:l.peak]
	l.peak = 0
}

func (l *lane) bytes() (n int64) {
	for _, b := range l.mem {
		n += int64(len(b))
	}
	return n
}

// New returns an empty pool that belongs to its caller alone.
func New() *Pool {
	return &Pool{
		classes: make([][][]byte, classIndex(maxClass)+1),
		own:     make([]lane, classIndex(maxClass)-classIndex(blockSize)+1),
		poison:  poison,
	}
}

// poison is a test hook: pools created or checked out while it is set fill
// every buffer they hand out, and every buffer they take back, with
// poisonByte. A user of the pool that reads a byte it did not write, or reads
// a buffer it has returned, then computes on garbage and fails its payload
// check instead of passing on whatever the memory happened to hold.
var poison bool

const poisonByte = 0xA5

// Poison switches the hook for pools created or checked out from now on.
// Tests only; it is not safe to call while simulations run on other
// goroutines.
func Poison(on bool) { poison = on }

func (p *Pool) taint(buf []byte) {
	if p.poison {
		for i := range buf {
			buf[i] = poisonByte
		}
	}
}

// classIndex maps a size to its class slot: ceil(log2(max(size, minClass)))
// minus log2(minClass).
func classIndex(n int) int {
	if n <= minClass {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(uint(minClass-1))
}

// classSize returns the capacity of buffers in class i.
func classSize(i int) int { return minClass << i }

// Get returns a slice of length n backed by a pooled (or fresh) buffer of
// n's size class. Contents are unspecified; callers must overwrite all n
// bytes before anything reads the slice. n > 8 MB falls back to a plain
// allocation that will not be retained.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	p.gets++
	var buf []byte
	if n > maxClass {
		buf = make([]byte, n)
	} else {
		if i := classIndex(n); len(p.classes[i]) > 0 {
			list := p.classes[i]
			buf = list[len(list)-1][:n]
			list[len(list)-1] = nil
			p.classes[i] = list[:len(list)-1]
			p.hits++
		} else {
			buf = p.miss(i)[:n]
		}
		p.out++
	}
	p.taint(buf)
	return buf
}

// miss serves a Get of class i that the free list could not: with the next
// piece of the memory the pool holds that no Get of this run has been given,
// or with new memory once that is used up. Blocks are carved like chunks — a
// buffer that does not fit the rest of the current block starts the next one
// and the rest is left unused until the pool is rewound.
func (p *Pool) miss(i int) []byte {
	size := classSize(i)
	if size >= blockSize {
		return p.own[i-classIndex(blockSize)].draw(size)
	}
	for size > len(p.cur) {
		grown := firstBlock
		if k := len(p.blocks.mem); k > 0 {
			grown = min(2*len(p.blocks.mem[k-1]), blockSize)
		}
		p.cur = p.blocks.draw(max(grown, size))
	}
	buf := p.cur[:size:size]
	p.cur = p.cur[size:]
	return buf
}

// Put returns a buffer obtained from Get to its free list. The caller must
// not retain any reference; nil and oversize buffers are dropped.
func (p *Pool) Put(buf []byte) {
	if buf == nil {
		return
	}
	c := cap(buf)
	if c < minClass || c > maxClass {
		return
	}
	i := classIndex(c)
	if classSize(i) != c {
		// Not one of ours (e.g. a caller-provided slice); never pool a
		// buffer whose capacity is not an exact class size, as handing it
		// out at full class length would over-run it.
		return
	}
	p.taint(buf[:c])
	p.classes[i] = append(p.classes[i], buf[:c])
	p.out--
}

// Stats reports total Get calls and how many were served from a free list.
func (p *Pool) Stats() (gets, hits uint64) { return p.gets, p.hits }

// Outstanding reports how many pooled buffers Get has handed out and Put has
// not taken back. Rewinding a pool forgets them: a buffer nobody returned is
// not even garbage any more, it only makes the run look as if it had needed
// more memory, so a leak has to be counted to be seen.
func (p *Pool) Outstanding() int { return p.out }

// lanes calls fn for the blocks and for every class that keeps buffers of its
// own.
func (p *Pool) lanes(fn func(*lane)) {
	fn(&p.blocks)
	for i := range p.own {
		fn(&p.own[i])
	}
}

// rewind ends a run's use of the pool: the free lists are emptied and every
// block and buffer the pool holds is unused again. Buffers still out are
// forgotten; the memory is kept.
func (p *Pool) rewind() {
	for i, list := range p.classes {
		clear(list) // a free list must not pin a block the pool sheds
		p.classes[i] = list[:0]
	}
	p.cur = nil
	p.lanes((*lane).rewind)
	p.gets, p.hits, p.out = 0, 0, 0
}

// held reports the bytes of payload memory the pool keeps.
func (p *Pool) held() (n int64) {
	p.lanes(func(l *lane) { n += l.bytes() })
	return n
}
