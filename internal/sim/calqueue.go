package sim

import (
	"runtime"
	"sync"

	"srmcoll/internal/bufpool"
)

// Calendar-queue ready list. The scheduler's former binary heap paid
// O(log n) pointer-chasing per operation with n equal to every outstanding
// event in the run — at tens of thousands of ranks the heap is the hot
// path. A calendar queue (bucketed time wheel) exploits what collective
// protocols actually schedule: almost every event lands within a few
// microseconds of the current virtual time, so hashing events into
// fixed-width time buckets makes push and pop O(1) amortized.
//
// Layout: nbuckets power-of-two buckets each covering `width` microseconds
// of virtual time; an event at time t belongs to virtual day floor(t/width)
// and lands in bucket day&mask. One "year" is nbuckets*width; events due
// beyond one year from the current day (fault-plan deadlines, heartbeat
// suspicion timers) overflow into a small binary heap and migrate into the
// calendar as the clock approaches them.
//
// Determinism: pop order is exactly (time, then insertion sequence number)
// — the same total order the binary heap produced — so the queue cannot
// perturb virtual time by even a bit.
//
// Within a bucket, items of one timestamp form a run: a FIFO chained
// through item.next. Sequence numbers only grow, so appending at the tail
// keeps a run in seq order and a tie costs no comparison at all — protocol
// rounds put thousands of ranks on one timestamp. The bucket orders its
// runs by their inline float keys (no item is dereferenced to compare), so
// a pop takes the head of the first run and a push finds its run by exact
// time. Lookup is a binary search rather than a recency cache because the
// protocols interleave their timestamps: at 65,536 ranks a bucket holds
// 16-128 distinct times, each tens of items deep (DESIGN.md §13).
type calQueue struct {
	buckets  []bucket
	mask     int   // len(buckets) - 1; len is a power of two
	width    Time  // virtual time covered by one bucket
	curDay   int64 // day of the most recently popped item
	n        int   // items in the buckets (excluding overflow)
	nruns    int   // distinct timestamps in the buckets
	overflow eventHeap
	runMem   bufpool.Chunks[run] // where a bucket's first runs array comes from
}

// run is the FIFO of the items due at one timestamp, held by its tail: the
// chain is circular, tail.next is the head. One pointer per run keeps the
// entries a bucket shifts and searches at 16 bytes.
type run struct {
	t    Time
	tail *item
}

// bucket holds its runs in ascending time order. Popping advances head past
// a drained run instead of shifting the array; an emptied bucket resets to
// runs[:0] with head 0, so len(runs) != 0 means the bucket holds an item. A
// bucket's first array is carved from the queue's slabs with room for
// bucketRoom runs — a small simulation opens a new timestamp with most of its
// events and would otherwise grow every bucket it touches from nothing — and
// capped there, so that growing past it moves to an array of the bucket's own
// and never writes into a neighbour's.
type bucket struct {
	runs []run
	head int
}

const (
	// calInitBuckets and calWidth are sized for the repository's cost
	// model: sub-microsecond copy/flag latencies with events clustering
	// within ~25 us of now. One year = 1024 * 4 us ≈ 4 ms of virtual time,
	// far beyond any latency parameter; only watchdog-scale timers
	// (deadlines, suspicion timeouts) overflow.
	calInitBuckets = 1024
	calWidth       = Time(4.0)
	// calCrowd triggers a narrowing when the calendar holds more than this
	// many distinct timestamps per bucket on average. Crowding is counted
	// in runs, not items: a deep tie costs nothing, while opening a run in
	// a bucket of k runs moves up to k entries.
	calCrowd = 8
	// calMaxBuckets stops the narrowing: 2^20 buckets are 32 MB of headers
	// and a width of 4 ns. Beyond it a crowded bucket only gets slower.
	calMaxBuckets = 1 << 20
	// bucketRoom is the capacity a bucket starts with.
	bucketRoom = 4
)

// spareQueues holds the calendars of finished environments (Env.Release):
// each reset, with its calInitBuckets empty buckets.
var spareQueues struct {
	sync.Mutex
	qs []*calQueue
}

// newCalQueue returns an empty calendar: a recycled one, or a new one.
func newCalQueue() *calQueue {
	spareQueues.Lock()
	var q *calQueue
	if n := len(spareQueues.qs) - 1; n >= 0 {
		q, spareQueues.qs[n], spareQueues.qs = spareQueues.qs[n], nil, spareQueues.qs[:n]
	}
	spareQueues.Unlock()
	if q == nil {
		q = &calQueue{buckets: make([]bucket, calInitBuckets)}
	}
	q.mask, q.width = calInitBuckets-1, calWidth
	return q
}

// release ends the queue's use: its runs go back to the reserve and the queue,
// reset, waits for the next environment — unless it narrowed: a widened bucket
// array is the collector's. Items still queued are forgotten.
func (q *calQueue) release() {
	q.runMem.Release()
	if len(q.buckets) != calInitBuckets {
		return
	}
	clear(q.buckets) // their arrays were the reserve's, or are garbage
	clear(q.overflow)
	*q = calQueue{buckets: q.buckets, overflow: q.overflow[:0]}
	spareQueues.Lock()
	defer spareQueues.Unlock()
	if len(spareQueues.qs) < runtime.GOMAXPROCS(0) {
		spareQueues.qs = append(spareQueues.qs, q)
	}
}

// day maps a timestamp to its virtual day. Item times are never negative
// (Env clamps to now), so the truncation is a plain floor.
func (q *calQueue) day(t Time) int64 { return int64(t / q.width) }

// Len returns the total number of queued items.
func (q *calQueue) Len() int { return q.n + len(q.overflow) }

// push inserts an item, routing far-future items to the overflow heap. Among
// items of equal time, push order must be seq order; Env's counter makes it
// so, and narrow and migrate re-add in pop order.
func (q *calQueue) push(it *item) {
	d := q.day(it.t)
	if d-q.curDay >= int64(len(q.buckets)) {
		heapPush(&q.overflow, it)
		return
	}
	if q.nruns > calCrowd*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.narrow()
		d = q.day(it.t)
	}
	q.place(&q.buckets[int(d)&q.mask], it)
}

// place appends it to the run of its timestamp in b, opening the run if the
// bucket has none.
func (q *calQueue) place(b *bucket, it *item) {
	q.n++
	t := it.t
	lo, hi := b.head, len(b.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.runs[mid].t < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b.runs) && b.runs[lo].t == t {
		r := &b.runs[lo]
		it.next = r.tail.next
		r.tail.next = it
		r.tail = it
		return
	}
	q.nruns++
	it.next = it
	if cap(b.runs) == 0 {
		b.runs = q.runMem.Take(bucketRoom)[:0]
	}
	b.open(lo, run{t: t, tail: it})
}

// open inserts r at index i, reclaiming the drained prefix before the array
// would grow.
func (b *bucket) open(i int, r run) {
	if len(b.runs) == cap(b.runs) && b.head > 0 {
		n := copy(b.runs, b.runs[b.head:])
		clear(b.runs[n:])
		b.runs = b.runs[:n]
		i -= b.head
		b.head = 0
	}
	b.runs = append(b.runs, run{})
	copy(b.runs[i+1:], b.runs[i:])
	b.runs[i] = r
}

// take removes and returns the earliest item of a non-empty bucket.
func (q *calQueue) take(b *bucket) *item {
	r := &b.runs[b.head]
	it := r.tail.next
	if it != r.tail {
		r.tail.next = it.next
	} else {
		r.tail = nil // drop the pointer so a drained slot retains no item
		q.nruns--
		if b.head++; b.head == len(b.runs) {
			b.runs, b.head = b.runs[:0], 0
		}
	}
	q.n--
	return it
}

// narrow halves the bucket width and doubles the bucket count, so the year
// keeps its length and no item changes sides of the overflow horizon. Every
// run of old bucket i has the same day d, which splits into days 2d and 2d+1:
// new buckets 2i and 2i+1. The runs are already in time order, so the two
// halves are two slices of the old array — nothing is copied, and the lower
// half is capped so that a later append cannot write into the upper one.
// Resizing is pure bookkeeping: the (t, seq) pop order is unaffected.
func (q *calQueue) narrow() {
	old := q.buckets
	q.buckets = make([]bucket, 2*len(old))
	q.mask = len(q.buckets) - 1
	q.width /= 2
	q.curDay *= 2
	for i := range old {
		runs := old[i].runs[old[i].head:]
		lo, hi := 0, len(runs) // first run of the odd day
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.day(runs[mid].t)&1 == 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		q.buckets[2*i].runs = runs[:lo:lo]
		q.buckets[2*i+1].runs = runs[lo:]
	}
}

// migrate moves overflow items that now fall within the calendar year back
// into buckets, in (t, seq) order. Called whenever curDay advances.
func (q *calQueue) migrate() {
	for len(q.overflow) > 0 && q.day(q.overflow[0].t)-q.curDay < int64(len(q.buckets)) {
		it := heapPop(&q.overflow)
		q.place(&q.buckets[int(q.day(it.t))&q.mask], it)
	}
}

// first locates the bucket holding the earliest calendar item and its day;
// the calendar must not be empty. Bucket items always lie within one year of
// curDay, so their days occupy distinct residues: walking days forward from
// curDay, the first non-empty bucket is the one holding the minimum (t, seq).
// The walk mutates nothing. Only a pop may commit curDay to the found day: a
// peeked far-future item would otherwise drag the push window ahead of the
// virtual clock and break the day-residue invariant for later pushes at
// earlier times.
func (q *calQueue) first() (*bucket, int64) {
	for d := q.curDay; ; d++ {
		if b := &q.buckets[int(d)&q.mask]; len(b.runs) != 0 {
			return b, d
		}
		if d-q.curDay > int64(len(q.buckets)) {
			panic("sim: calendar queue scan found no item despite n > 0")
		}
	}
}

// peek returns the earliest item without removing it, or nil when empty.
// Peeking never mutates queue state.
func (q *calQueue) peek() *item {
	if q.n == 0 {
		// Calendar empty: the overflow head, if any, is the global minimum.
		if len(q.overflow) > 0 {
			return q.overflow[0]
		}
		return nil
	}
	b, _ := q.first()
	return b.runs[b.head].tail.next
}

// popDue removes and returns the earliest item if it is due by limit
// (limit < 0: no limit), in one scan. It returns nil, with the queue
// untouched and curDay uncommitted, when the queue is empty or its earliest
// item lies beyond the limit.
func (q *calQueue) popDue(limit Time) *item {
	if q.n == 0 {
		if len(q.overflow) == 0 || limit >= 0 && q.overflow[0].t > limit {
			return nil
		}
		// Jump the clock to the overflow horizon and pull a year's worth in.
		q.curDay = q.day(q.overflow[0].t)
		q.migrate()
	}
	b, d := q.first()
	if limit >= 0 && b.runs[b.head].t > limit {
		return nil
	}
	if d != q.curDay {
		// The year window moved; reclaim due overflow. Migrated items land a
		// year past the buckets just walked, never in b.
		q.curDay = d
		q.migrate()
	}
	return q.take(b)
}

// forEach visits every queued item (calendar and overflow) in unspecified
// order until fn returns false. Used by liveness checks, never on hot paths.
func (q *calQueue) forEach(fn func(*item) bool) {
	for i := range q.buckets {
		b := &q.buckets[i]
		for _, r := range b.runs[b.head:] {
			for it := r.tail.next; ; it = it.next {
				if !fn(it) {
					return
				}
				if it == r.tail {
					break
				}
			}
		}
	}
	for _, it := range q.overflow {
		if !fn(it) {
			return
		}
	}
}

// Hand-rolled (t, seq) min-heap primitives of the overflow store (and the
// calendar tests' reference ordering). They operate on bare []*item slices:
// unlike container/heap there is no interface dispatch.

func itemLess(a, b *item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func siftUp(h []*item, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []*item, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && itemLess(h[r], h[l]) {
			min = r
		}
		if !itemLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func heapPush(h *eventHeap, it *item) {
	*h = append(*h, it)
	siftUp(*h, len(*h)-1)
}

func heapPop(h *eventHeap) *item {
	old := *h
	n := len(old)
	it := old[0]
	old[0] = old[n-1]
	old[n-1] = nil // drop the pointer so long sweeps do not retain dead items
	*h = old[:n-1]
	siftDown(*h, 0)
	return it
}
