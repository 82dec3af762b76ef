package bufpool

import (
	"runtime"
	"sync"
	"testing"
)

// use is one simulation's worth of pool traffic: check a pool out, hold
// buffers of all the sizes at once, return them, hand the pool back.
func use(sizes ...int) {
	p := CheckOut()
	bufs := make([][]byte, len(sizes))
	for i, n := range sizes {
		bufs[i] = p.Get(n)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	HandBack(p)
}

// repeat returns n copies of size.
func repeat(n, size int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = size
	}
	return s
}

func TestMissesCarveBlocksOnARamp(t *testing.T) {
	p := New()
	a, b := p.Get(100), p.Get(64)
	if cap(a) != 128 || cap(b) != 64 {
		t.Fatalf("carved buffers have caps %d and %d, want their class sizes 128 and 64", cap(a), cap(b))
	}
	if &a[0] != &p.blocks.mem[0][0] || &b[0] != &p.blocks.mem[0][128] {
		t.Fatal("two misses of a new pool are not adjacent carvings of its first block")
	}
	if got := len(p.blocks.mem[0]); got != firstBlock {
		t.Fatalf("first block of %d bytes, want %d", got, firstBlock)
	}
	// Blocks double up to blockSize; a buffer larger than the ramp's next step
	// gets a block of its class size and the ramp goes on from there.
	for len(p.blocks.mem) < 16 {
		p.Get(firstBlock)
	}
	for k, blk := range p.blocks.mem {
		if want := min(firstBlock<<k, blockSize); len(blk) != want {
			t.Fatalf("block %d has %d bytes, want %d", k, len(blk), want)
		}
	}
	q := New()
	q.Get(64 << 10)
	q.Get(64)
	q.Get(64 << 10)
	if len(q.blocks.mem) != 2 || len(q.blocks.mem[0]) != 64<<10 || len(q.blocks.mem[1]) != 128<<10 {
		t.Fatalf("a new pool asked for 64 KiB, 64 B, 64 KiB made blocks %d, want 64 KiB and 128 KiB", len(q.blocks.mem))
	}
	// From blockSize up a class has buffers of its own and leaves the blocks alone.
	before := len(q.blocks.mem)
	big := q.Get(blockSize + 1)
	if cap(big) != 2*blockSize || len(q.blocks.mem) != before || len(q.own[1].mem) != 1 {
		t.Fatalf("Get above blockSize: cap %d, %d blocks (had %d), %d own buffers of its class",
			cap(big), len(q.blocks.mem), before, len(q.own[1].mem))
	}
	q.Put(big)
	if again := q.Get(2 * blockSize); &again[0] != &big[0] {
		t.Fatal("a returned buffer of a large class is not recycled within the run")
	}
}

// TestRewoundPoolUnderPoison: a warm buffer holds the previous run's bytes,
// which in a repeated run are the right answer, so a read before the first
// write could pass where on new memory it computed on zeros. Under the hook a
// pool from the reserve hands out poison and nothing else — also one that
// became a spare before the hook was switched on — and no two buffers that are
// out at the same time share a byte, for classes below, at and above blockSize.
func TestRewoundPoolUnderPoison(t *testing.T) {
	DrainReserve()
	defer DrainReserve()
	defer Poison(false)
	sizes := []int{100, 64, 4096, 300 << 10, 512 << 10, 100, blockSize, blockSize + 1, 512 << 10, 4 * blockSize, 16 << 10, blockSize}
	for round := 0; round < 4; round++ {
		Poison(round > 0) // the first run leaves a clean spare behind
		p := CheckOut()
		if round > 0 && (p.held() == 0 || !p.poison) {
			t.Fatalf("round %d: checked out a pool holding %d bytes, poison %v; want the spare, poisoned", round, p.held(), p.poison)
		}
		var live [][]byte
		get := func(n int) {
			b := p.Get(n)
			if round > 0 {
				for i, v := range b[:cap(b)] {
					if v != poisonByte {
						t.Fatalf("round %d: Get(%d) hands out byte %d = %#x of an earlier run", round, n, i, v)
					}
				}
			}
			tag := byte(len(live) + 1)
			for i := range b {
				b[i] = tag
			}
			live = append(live, b)
		}
		for _, n := range sizes {
			get(n)
		}
		// Recycle some within the run, as a collective's slots are.
		for _, k := range []int{1, 4, 7} {
			p.Put(live[k])
			live[k] = nil
		}
		for _, n := range []int{64, 512 << 10, 2 * blockSize} {
			get(n)
		}
		for k, b := range live {
			for i, v := range b {
				if v != byte(k+1) {
					t.Fatalf("round %d: buffer %d (%d bytes) reads %#x at %d, want its tag %#x: it overlaps another live buffer",
						round, k, len(b), v, i, k+1)
				}
			}
		}
		if want := len(sizes); p.Outstanding() != want {
			t.Fatalf("round %d: %d buffers out, want %d", round, p.Outstanding(), want)
		}
		held := p.held()
		HandBack(p)
		if err := CheckReserve(); err != nil {
			t.Fatal(err)
		}
		if got := Reserve(); got.Spares != 1 || got.Bytes != held {
			t.Fatalf("round %d: reserve holds %d spares with %d bytes, want 1 with %d", round, got.Spares, got.Bytes, held)
		}
	}
}

// TestReserveHandsEachRunItsOwnPool: concurrent runs each pop or make their
// own pool. Under the race detector two goroutines handed the same spare are
// a reported race on its counters; without it their tags collide.
func TestReserveHandsEachRunItsOwnPool(t *testing.T) {
	DrainReserve()
	defer DrainReserve()
	const workers, runs = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				p := CheckOut()
				var bufs [6][]byte
				for i := range bufs {
					bufs[i] = p.Get(64 << (2 * uint(i+r%3)))
					for j := range bufs[i] {
						bufs[i][j] = byte(w*len(bufs) + i)
					}
				}
				runtime.Gosched()
				for i, b := range bufs {
					for j, v := range b {
						if v != byte(w*len(bufs)+i) {
							t.Errorf("worker %d run %d: buffer %d reads %#x at %d: another run wrote to it", w, r, i, v, j)
							return
						}
					}
					p.Put(b)
				}
				HandBack(p)
			}
		}(w)
	}
	wg.Wait()
	if err := CheckReserve(); err != nil {
		t.Fatal(err)
	}
}

// TestReserveShedsWhatNoRunNeeds: retention is bounded by what recent runs
// drew. A run that draws 64 MiB of blocks and 24 MiB of buffers of their own
// leaves all of it in the reserve; Window small runs later it is gone, and a
// cycle finds the heap where it was.
func TestReserveShedsWhatNoRunNeeds(t *testing.T) {
	DrainReserve()
	defer DrainReserve()
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	big := append(repeat(128, 512<<10), repeat(4, 2*blockSize)...)
	big = append(big, repeat(2, maxClass)...)
	use(big...)
	if got, want := Reserve().Bytes, int64(64+8+16)<<20; got < want {
		t.Fatalf("after a run holding 88 MiB at once the reserve holds %d bytes, want at least %d: the large classes' own buffers count too", got, want)
	}
	for k := 0; k < Window; k++ {
		use(4096)
	}
	if got := Reserve(); got.Spares != 1 || got.Bytes > 2<<20 {
		t.Fatalf("after %d small runs the reserve holds %d spares with %d bytes, want 1 with at most 2 MiB", Window, got.Spares, got.Bytes)
	}
	if grown := heap() - before; grown > 2<<20 {
		t.Fatalf("the heap is %d bytes above where it started, want within 2 MiB", grown)
	}
}

// TestReserveKeepsWhatRunsNeed: the benchmark's grid alternates one cell that
// holds 128 MiB with many that hold kilobytes. The large one must find its
// blocks, and its buffers of the large classes, every time it comes round —
// for far longer than the Window — without the allocator being asked once.
func TestReserveKeepsWhatRunsNeed(t *testing.T) {
	DrainReserve()
	defer DrainReserve()
	big := append(repeat(64, 512<<10), 2*blockSize, 64, 4096)
	use(big...)
	held := Reserve().Bytes
	bufs := make([][]byte, len(big))
	for k := 0; k < 3*Window/4; k++ {
		for s := 0; s < 3; s++ {
			use(4096, 64, 16<<10)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := CheckOut()
		for i, n := range big {
			bufs[i] = p.Get(n)
		}
		gets, hits := p.Stats()
		for _, b := range bufs {
			p.Put(b)
		}
		HandBack(p)
		runtime.ReadMemStats(&after)
		if gets != uint64(len(big)) || hits != 0 {
			t.Fatalf("round %d: %d gets, %d hits; want %d misses, all carved from kept memory", k, gets, hits, len(big))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= firstBlock {
			t.Fatalf("round %d: the warm large run allocated %d bytes, want less than the smallest block (%d)", k, got, firstBlock)
		}
		if got := Reserve().Bytes; got != held {
			t.Fatalf("round %d: the reserve holds %d bytes, want the %d of the first large run", k, got, held)
		}
	}
}

// TestReserveBoundsSpares: no more spares are kept than runs could be using at
// once, and a spare no run has popped through Window hand-backs is dropped.
func TestReserveBoundsSpares(t *testing.T) {
	DrainReserve()
	defer DrainReserve()
	limit := runtime.GOMAXPROCS(0)
	pools := make([]*Pool, limit+3)
	for i := range pools {
		pools[i] = CheckOut()
		pools[i].Get(blockSize)
	}
	for _, p := range pools {
		HandBack(p)
	}
	if err := CheckReserve(); err != nil {
		t.Fatal(err)
	}
	if got := Reserve(); got.Spares != limit {
		t.Fatalf("%d spares after %d overlapping runs, want %d", got.Spares, len(pools), limit)
	}
	for k := 0; k < Window; k++ {
		use(64) // serial runs pop and push the top spare only
	}
	if got := Reserve(); got.Spares != 1 {
		t.Fatalf("%d spares after %d serial runs, want the one they used", got.Spares, Window)
	}
}
