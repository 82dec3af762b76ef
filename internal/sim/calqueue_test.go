package sim

import (
	"math/rand"
	"testing"
)

// The calendar queue replaced the scheduler's binary heap; its one obligation
// is to reproduce the heap's (t, seq) pop order exactly, because virtual time
// determinism hangs on that total order. These tests drive the queue against
// a reference heap over randomized schedules shaped like real runs: heavy
// equal-timestamp clustering (synchronized protocol rounds), short forward
// offsets (latency-scale wakeups), and rare far-future deadlines (fault
// plans, heartbeat suspicion timers) that must take the overflow path.

// pop removes the earliest item whatever its time, as Env.Run does.
func (q *calQueue) pop() *item { return q.popDue(-1) }

func TestCalQueueMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newCalQueue()
		var ref eventHeap
		var seq uint64
		now := Time(0)
		sawOverflow := false
		for i := 0; i < 40000; i++ {
			if q.Len() == 0 || rng.Intn(3) != 0 {
				for j, k := 0, 1+rng.Intn(4); j < k; j++ {
					var at Time
					switch rng.Intn(10) {
					case 0: // deadline/heartbeat scale: far beyond one year
						at = now + Time(5000+rng.Intn(40000))
					case 1, 2, 3: // a protocol round: identical timestamps
						at = now
					default: // latency-scale wakeup
						at = now + Time(rng.Float64()*25)
					}
					it := &item{t: at, seq: seq}
					seq++
					q.push(it)
					heapPush(&ref, it)
				}
				if len(q.overflow) > 0 {
					sawOverflow = true
				}
			} else {
				got, want := q.pop(), heapPop(&ref)
				if got != want {
					t.Fatalf("seed %d: pop = (t=%v seq=%d), heap order wants (t=%v seq=%d)",
						seed, got.t, got.seq, want.t, want.seq)
				}
				// The scheduler never schedules into the past; keep the
				// generated times honoring that contract.
				now = got.t
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d: Len() = %d, reference holds %d", seed, q.Len(), len(ref))
			}
		}
		if len(q.buckets) == calInitBuckets {
			t.Fatalf("seed %d: queue never narrowed; the resize path went untested", seed)
		}
		if !sawOverflow {
			t.Fatalf("seed %d: no item ever overflowed; widen the far-future band", seed)
		}
		for q.Len() > 0 {
			got, want := q.pop(), heapPop(&ref)
			if got != want {
				t.Fatalf("seed %d: drain pop = (t=%v seq=%d), want (t=%v seq=%d)",
					seed, got.t, got.seq, want.t, want.seq)
			}
		}
		if len(ref) != 0 {
			t.Fatalf("seed %d: queue drained but reference holds %d items", seed, len(ref))
		}
		if q.pop() != nil || q.peek() != nil {
			t.Fatalf("seed %d: empty queue returned an item", seed)
		}
	}
}

func TestCalQueueTaskEngineLoadProperty(t *testing.T) {
	// Property test shaped like the Task engine's actual load: a pop is a
	// task step that immediately reschedules itself (SleepThen), sometimes
	// spawns siblings at the current instant (SpawnTask), and occasionally
	// arms a far deadline (suspicion timers). Unlike the mixed push/pop walk
	// above, every push after warm-up is pop-driven, so the bucket wheel is
	// forced to narrow while the clock advances through it — the regime a
	// million-rank run keeps it in. 100k+ events, compared pop-for-pop
	// against the binary-heap reference.
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newCalQueue()
		var ref eventHeap
		var seq uint64
		push := func(at Time) {
			it := &item{t: at, seq: seq}
			seq++
			q.push(it)
			heapPush(&ref, it)
		}
		// Warm-up: a fleet of "tasks" all starting at t=0, like
		// Env.SpawnTask scheduling every rank's first step at spawn time.
		const fleet = 20000
		for i := 0; i < fleet; i++ {
			push(0)
		}
		grew := false
		events := fleet
		for q.Len() > 0 && events < 120000 {
			got, want := q.pop(), heapPop(&ref)
			if got != want {
				t.Fatalf("seed %d: pop = (t=%v seq=%d), heap order wants (t=%v seq=%d)",
					seed, got.t, got.seq, want.t, want.seq)
			}
			now := got.t
			events++
			// The popped step reschedules like a protocol round: usually a
			// latency-scale SleepThen, sometimes an immediate yield,
			// occasionally a watchdog-scale deadline.
			switch rng.Intn(20) {
			case 0:
				push(now + Time(5000+rng.Intn(50000)))
			case 1, 2:
				push(now) // SleepThen(0, …)
			default:
				push(now + Time(rng.Float64()*25))
			}
			// And sometimes fans out helpers at the current instant, like
			// SpawnTask from inside a step.
			if rng.Intn(50) == 0 {
				for j, k := 0, 1+rng.Intn(8); j < k; j++ {
					push(now)
				}
			}
			if len(q.buckets) > calInitBuckets {
				grew = true
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d: Len() = %d, reference holds %d", seed, q.Len(), len(ref))
			}
		}
		if !grew {
			t.Fatalf("seed %d: bucket wheel never narrowed under task load", seed)
		}
		for q.Len() > 0 {
			got, want := q.pop(), heapPop(&ref)
			if got != want {
				t.Fatalf("seed %d: drain pop = (t=%v seq=%d), want (t=%v seq=%d)",
					seed, got.t, got.seq, want.t, want.seq)
			}
		}
	}
}

func TestCalQueueOverflowRollover(t *testing.T) {
	// Every deadline here lies beyond one calendar year (calInitBuckets *
	// calWidth of virtual time), as heartbeat timers do, so all of them take
	// the overflow heap; popping must jump the calendar clock forward and
	// still honor (t, seq) order, including the equal-time tie.
	q := newCalQueue()
	times := []Time{100000, 4100, 999999.5, 4100, 50000}
	items := make([]*item, len(times))
	for i, at := range times {
		items[i] = &item{t: at, seq: uint64(i)}
		q.push(items[i])
	}
	if q.n != 0 || len(q.overflow) != len(times) {
		t.Fatalf("calendar holds %d items, overflow %d; want all %d in overflow",
			q.n, len(q.overflow), len(times))
	}
	for _, want := range []*item{items[1], items[3]} {
		if got := q.pop(); got != want {
			t.Fatalf("pop = (t=%v seq=%d), want (t=%v seq=%d)", got.t, got.seq, want.t, want.seq)
		}
	}
	// After the clock rolled to the 4100 neighborhood, a near-time push must
	// land in the calendar and pop ahead of the remaining far deadlines.
	near := &item{t: 4200, seq: 99}
	q.push(near)
	if q.n != 1 {
		t.Fatalf("near-time push landed in overflow; calendar holds %d", q.n)
	}
	for _, want := range []*item{near, items[4], items[0], items[2]} {
		if got := q.pop(); got != want {
			t.Fatalf("pop = (t=%v seq=%d), want (t=%v seq=%d)", got.t, got.seq, want.t, want.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after draining", q.Len())
	}
}

func TestCalQueueYearBoundaryRollover(t *testing.T) {
	// A deadline landing exactly on the first day past the current year
	// (t = calInitBuckets * calWidth, day == len(buckets) with curDay == 0)
	// sits on the >= boundary of the push overflow check. It must take the
	// overflow path — its day aliases bucket 0 under the mask, and a
	// calendar landing there would make scan find it a full year early.
	q := newCalQueue()
	boundary := Time(calInitBuckets) * calWidth // day 1024: exactly one year out
	a := &item{t: boundary - calWidth, seq: 0}  // day 1023: last bucket of year 0
	b := &item{t: boundary, seq: 1}
	q.push(a)
	q.push(b)
	if q.n != 1 || len(q.overflow) != 1 {
		t.Fatalf("calendar holds %d, overflow %d; the boundary item must overflow", q.n, len(q.overflow))
	}
	// Popping a advances curDay to 1023; the boundary item now fits the
	// year window and must migrate into the wraparound bucket (1024 & mask
	// == 0) without perturbing order.
	if got := q.pop(); got != a {
		t.Fatalf("pop = (t=%v seq=%d), want the day-1023 item", got.t, got.seq)
	}
	if len(q.overflow) != 0 {
		t.Fatal("boundary item did not migrate into the calendar at rollover")
	}
	// A later push into the same wrapped bucket must not overtake it.
	c := &item{t: boundary + 1, seq: 2}
	q.push(c)
	for _, want := range []*item{b, c} {
		if got := q.pop(); got != want {
			t.Fatalf("pop = (t=%v seq=%d), want (t=%v seq=%d)", got.t, got.seq, want.t, want.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after draining", q.Len())
	}
}

func TestCalQueuePeekDoesNotAdvanceClock(t *testing.T) {
	// RunUntil compares the queue head against its time limit. A look that
	// committed the calendar clock to a far-future head would let a later,
	// earlier-time push land behind the clock and pop out of order. Both
	// looks are held to it: peek, and a popDue that finds the head beyond
	// its limit.
	q := newCalQueue()

	// Head in a later bucket of the current year.
	mid := &item{t: 100, seq: 0}
	q.push(mid)
	if got := q.peek(); got != mid {
		t.Fatalf("peek = %v, want the mid-year item", got)
	}
	if got := q.popDue(99); got != nil || q.curDay != 0 || q.Len() != 1 {
		t.Fatalf("popDue(99) = %v with curDay %d, Len %d; want nothing taken and the clock at day 0", got, q.curDay, q.Len())
	}
	early := &item{t: 2, seq: 1}
	q.push(early)
	if got := q.pop(); got != early {
		t.Fatalf("pop after peek = (t=%v seq=%d), want the earlier item", got.t, got.seq)
	}
	if got := q.pop(); got != mid {
		t.Fatalf("second pop = (t=%v seq=%d), want the mid-year item", got.t, got.seq)
	}

	// Head beyond the year entirely: peek must fall through to the overflow
	// heap without migrating it in.
	far := &item{t: 50000, seq: 2}
	q.push(far)
	if got := q.peek(); got != far {
		t.Fatalf("peek = %v, want the overflowed item", got)
	}
	if got := q.popDue(49999); got != nil {
		t.Fatalf("popDue(49999) = (t=%v seq=%d), want nothing: the head is due at 50000", got.t, got.seq)
	}
	if q.n != 0 || q.curDay != q.day(mid.t) {
		t.Fatalf("a look at the overflow head moved it (calendar holds %d) or the clock (day %d)", q.n, q.curDay)
	}
	early2 := &item{t: 3, seq: 3}
	q.push(early2)
	if got := q.peek(); got != early2 {
		t.Fatalf("peek = (t=%v seq=%d), want the near item", got.t, got.seq)
	}
	if got := q.pop(); got != early2 {
		t.Fatalf("pop = (t=%v seq=%d), want the near item", got.t, got.seq)
	}
	if got := q.pop(); got != far {
		t.Fatalf("final pop = (t=%v seq=%d), want the far item", got.t, got.seq)
	}
}

// ladderShape replays what the 65,536-rank workload was measured to do to one
// calendar bucket (DESIGN.md §13): `times` distinct timestamps inside a
// window of `span` microseconds, `depth` items on each, pushed round-robin
// across the timestamps so that no two consecutive pushes share one.
func ladderShape(rng *rand.Rand, base Time, times, depth int, span Time, push func(Time)) {
	at := make([]Time, times)
	for i := range at {
		at[i] = base + span*rng.Float64()
	}
	for d := 0; d < depth; d++ {
		for _, i := range rng.Perm(times) {
			push(at[i])
		}
	}
}

func TestCalQueueLadderShapeProperty(t *testing.T) {
	// The measured shape, against the reference heap: every 4 us bucket the
	// clock passes holds 64-128 distinct times, 20-40 ties deep, and each
	// pop schedules into the buckets ahead — onto an existing time as often
	// as onto a new one.
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newCalQueue()
		var ref eventHeap
		var seq uint64
		push := func(at Time) {
			it := &item{t: at, seq: seq}
			seq++
			q.push(it)
			heapPush(&ref, it)
		}
		var known []Time // timestamps of the round being filled
		for round := 0; round < 6; round++ {
			base := Time(round) * 3 * calWidth
			for b := 0; b < 3; b++ {
				times := 64 + rng.Intn(65)
				ladderShape(rng, base+Time(b)*calWidth, times, 20+rng.Intn(21), calWidth, func(at Time) {
					known = append(known, at)
					push(at)
				})
				bk := &q.buckets[int(q.day(base+Time(b)*calWidth))&q.mask]
				if live := len(bk.runs) - bk.head; q.width == calWidth && live < 64 {
					t.Fatalf("seed %d: bucket holds %d distinct times, the shape wants >= 64", seed, live)
				}
			}
			// Drain two thirds of the round; each pop reschedules a few
			// microseconds ahead, half of the time onto a known timestamp.
			for n := 2 * len(known) / 3; n > 0; n-- {
				got, want := q.pop(), heapPop(&ref)
				if got != want {
					t.Fatalf("seed %d: pop = (t=%v seq=%d), heap order wants (t=%v seq=%d)",
						seed, got.t, got.seq, want.t, want.seq)
				}
				if rng.Intn(4) == 0 {
					at := known[rng.Intn(len(known))]
					if rng.Intn(2) == 0 || at < got.t {
						at = got.t + Time(rng.Float64()*10)
					}
					push(at)
				}
			}
			known = known[:0]
			if q.Len() != len(ref) {
				t.Fatalf("seed %d: Len() = %d, reference holds %d", seed, q.Len(), len(ref))
			}
		}
		for q.Len() > 0 {
			got, want := q.pop(), heapPop(&ref)
			if got != want {
				t.Fatalf("seed %d: drain pop = (t=%v seq=%d), want (t=%v seq=%d)",
					seed, got.t, got.seq, want.t, want.seq)
			}
		}
		if q.n != 0 || q.nruns != 0 {
			t.Fatalf("seed %d: drained calendar counts %d items in %d runs", seed, q.n, q.nruns)
		}
	}
}

func TestCalQueueNarrowsInTheMiddleOfARun(t *testing.T) {
	// Crowd the calendar with distinct times until the next push narrows it,
	// with a deep tie half pushed before the narrowing and half after: the
	// run must move whole and keep taking ties at its tail, in seq order.
	q := newCalQueue()
	var ref eventHeap
	var seq uint64
	push := func(at Time) {
		it := &item{t: at, seq: seq}
		seq++
		q.push(it)
		heapPush(&ref, it)
	}
	const tie = Time(1001.5)
	for i := 0; i < 50; i++ {
		push(tie)
	}
	for i := 0; q.nruns <= calCrowd*calInitBuckets; i++ {
		push(Time(i) * 0.25) // 16 distinct times per 4 us bucket
	}
	if len(q.buckets) != calInitBuckets {
		t.Fatal("the calendar narrowed before the run was half pushed")
	}
	for i := 0; i < 50; i++ {
		push(tie)
		push(tie + 0.125) // a neighbour the narrowing separates from the tie
	}
	if len(q.buckets) != 2*calInitBuckets || q.width != calWidth/2 {
		t.Fatalf("%d buckets of width %v after crowding; want one narrowing", len(q.buckets), q.width)
	}
	if q.Len() != len(ref) {
		t.Fatalf("Len() = %d, reference holds %d", q.Len(), len(ref))
	}
	for len(ref) > 0 {
		got, want := q.pop(), heapPop(&ref)
		if got != want {
			t.Fatalf("pop = (t=%v seq=%d), heap order wants (t=%v seq=%d)", got.t, got.seq, want.t, want.seq)
		}
	}
}

func TestCalQueueOverflowMigratesOntoARun(t *testing.T) {
	// Three items of one far timestamp overflow; the clock then approaches
	// and they migrate one by one, the second and third onto the run the
	// first opened. Later pushes of the same timestamp go straight to the
	// calendar and must queue behind all three.
	q := newCalQueue()
	const far = Time(5000)
	var want []*item
	add := func(at Time, seq uint64) *item {
		it := &item{t: at, seq: seq}
		q.push(it)
		return it
	}
	for s := uint64(0); s < 3; s++ {
		want = append(want, add(far, s))
	}
	other := add(far+1, 3) // shares the bucket: the run is found by exact time
	if len(q.overflow) != 4 {
		t.Fatalf("overflow holds %d items, want all 4", len(q.overflow))
	}
	stepping := add(2000, 4)
	if got := q.pop(); got != stepping {
		t.Fatalf("pop = (t=%v seq=%d), want the stepping stone", got.t, got.seq)
	}
	if len(q.overflow) != 0 || q.n != 4 || q.nruns != 2 {
		t.Fatalf("after the clock moved: overflow %d, calendar %d items in %d runs; want 0, 4, 2",
			len(q.overflow), q.n, q.nruns)
	}
	want = append(want, add(far, 5), add(far, 6), other)
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop = (t=%v seq=%d), want (t=%v seq=%d)", got.t, got.seq, w.t, w.seq)
		}
	}
}

// TestCalendarFirstUseAllocs: a fresh queue opens its buckets out of carved
// room. 4,096 distinct timestamps a microsecond apart are four to each of the
// 1,024 buckets of a new calendar — the shape of a small simulation, which
// opens a timestamp with most of its events and ends before any bucket is used
// twice. They cost the chunks the items and the buckets' first arrays are
// carved from, and no array per bucket: at most one object per 64 pushes,
// where growing every bucket from nothing (0, 1, 2, 4 runs) took one for every
// two. A fifth timestamp in a bucket moves it to an array of its own, and the
// neighbour carved behind it keeps what it holds.
func TestCalendarFirstUseAllocs(t *testing.T) {
	const pushes = 4096
	noop := func() {}
	per := testing.AllocsPerRun(10, func() {
		e := NewEnv()
		for i := 0; i < pushes; i++ {
			e.At(Time(i), noop)
		}
	})
	t.Logf("%v objects for %d first pushes into a fresh queue", per, pushes)
	if per > pushes/64 {
		t.Errorf("%v objects for %d pushes at distinct times, want at most %d", per, pushes, pushes/64)
	}

	q := newCalQueue()
	var seq uint64
	push := func(at Time) {
		q.push(&item{t: at, seq: seq})
		seq++
	}
	for i := 0; i < bucketRoom; i++ {
		push(4 + Time(i)/8) // bucket 1, the first to carve its room
		push(Time(i) / 8)   // bucket 0, carved right behind it
	}
	push(4.9) // bucket 1 outgrows its room
	push(4.8)
	for _, want := range []Time{0, 0.125, 0.25, 0.375, 4, 4.125, 4.25, 4.375, 4.8, 4.9} {
		if got := q.pop(); got.t != want {
			t.Fatalf("popped t=%v, want %v: a bucket grew into its neighbour's runs", got.t, want)
		}
	}

	// Growth: one bucket opens 512 timestamps, doubling its array from
	// bucketRoom seven times, each time out of the queue's slabs; a queue that
	// was released before hands them back, so it costs nothing.
	items := make([]item, 512)
	grow := testing.AllocsPerRun(10, func() {
		q := newCalQueue()
		for i := range items {
			items[i] = item{t: Time(len(items)-1-i) / 128, seq: uint64(i)}
			q.push(&items[i])
		}
		for i := range items {
			if got := q.pop(); got.t != Time(i)/128 {
				t.Fatalf("popped t=%v, want %v", got.t, Time(i)/128)
			}
		}
		q.release()
	})
	if grow != 0 {
		t.Errorf("%v objects to grow a bucket to %d runs, want 0", grow, len(items))
	}
}
