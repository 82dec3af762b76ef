package bufpool

import (
	"math/rand"
	"reflect"
	"testing"
)

type rec struct {
	a, b int64
	p    *rec
} // 24 bytes: 682 to a slab

const (
	recPer    = ChunkBytes / 24
	slabBytes = recPer * 24
)

func TestChunksHandOutZeroedAdjacentValues(t *testing.T) {
	var c Chunks[rec]
	first := c.New()
	if *first != (rec{}) {
		t.Fatalf("New returned %+v, want the zero value", *first)
	}
	first.a = 7
	run := c.Take(5)
	if len(run) != 5 || cap(run) != 5 {
		t.Fatalf("Take(5): len %d cap %d, want 5 and 5", len(run), cap(run))
	}
	for i := range run {
		if run[i] != (rec{}) {
			t.Fatalf("Take(5)[%d] = %+v, want the zero value", i, run[i])
		}
	}
	// The values of one slab follow one another: appending to the capped run
	// must not reach into what is handed out next.
	next := c.New()
	next.a = 9
	run = append(run, rec{a: 1})
	if next.a != 9 || first.a != 7 {
		t.Fatal("an append to a run overwrote a neighbouring value")
	}
	if got, want := c.Bytes(), int64(slabBytes); got != want {
		t.Errorf("Bytes = %d after seven values, want one slab of %d", got, want)
	}
}

// TestChunksGrowToFullSize: there is no ramp. A slab is cleared only where it
// was carved, so the first one an allocator draws is as large as every other.
func TestChunksGrowToFullSize(t *testing.T) {
	var c Chunks[rec]
	var sizes []int64
	for last := int64(0); len(sizes) < 4; {
		c.New()
		if b := c.Bytes(); b != last {
			sizes = append(sizes, (b-last)/24)
			last = b
		}
	}
	for _, n := range sizes {
		if n != recPer {
			t.Fatalf("slabs of %v values, want %d each from the first", sizes, recPer)
		}
	}
}

// TestChunksAllocatePerChunk: n values cost ceil(n/per) slabs — heap objects
// when the reserve has none, nothing at all once a Release has stocked it; a
// run of a full slab or more costs one allocation of its own either way.
func TestChunksAllocatePerChunk(t *testing.T) {
	DrainReserve()
	defer DrainReserve()
	var c Chunks[rec]
	c.New() // the slabs list, and the first slab
	var last *rec
	const n = 10 * recPer
	carve := func() {
		for i := 0; i < n; i++ {
			last = c.New()
		}
	}
	if allocs, want := testing.AllocsPerRun(1, carve), 10.0+4; allocs > want || last == nil { // ten slabs, and the list growing
		t.Errorf("%d values cost %v objects with the reserve empty, want at most %v", n, allocs, want)
	}
	c.Release()
	c.New()
	if allocs := testing.AllocsPerRun(1, carve); allocs > 4 {
		t.Errorf("%d values cost %v objects with their slabs in the reserve, want only the list of them", n, allocs)
	}

	var d Chunks[rec]
	d.New()
	before, made := d.Bytes(), Slabs[rec]().Drawn
	big := d.Take(3 * recPer)
	if len(big) != 3*recPer || d.Bytes()-before != int64(3*recPer*24) {
		t.Errorf("Take of three slabs' worth: len %d, %d bytes", len(big), d.Bytes()-before)
	}
	// The oversize run drew no slab and left the current one alone.
	if d.New(); d.Bytes()-before != int64(3*recPer*24) || Slabs[rec]().Drawn != made {
		t.Error("an oversize Take, or the New after it, drew a slab")
	}
}

// TestChunksCut: what two owners carve shares no slab, so that either can give
// its values up without the other; a run that does not fit the rest of a slab
// starts the next; and a Release clears and returns exactly what its owner
// carved, to be handed out again zero.
func TestChunksCut(t *testing.T) {
	DrainReserve()
	defer DrainReserve()
	var c, d Chunks[rec]
	mine, theirs := c.Take(2), d.Take(2)
	if slabOf(&c, &mine[0]) != 0 || slabOf(&c, &mine[1]) != 0 || slabOf(&c, &theirs[0]) >= 0 || slabOf(&d, &theirs[0]) != 0 {
		t.Fatal("two allocators carved one slab (or one carved two for two values)")
	}
	c.Take(recPer - 3)
	if got := c.Bytes(); got != slabBytes {
		t.Fatalf("Bytes = %d after %d values, want one slab", got, recPer-1)
	}
	c.Take(2) // one more than is left
	if got := c.Bytes(); got != 2*slabBytes {
		t.Errorf("Bytes = %d: a run longer than the rest of the slab must start a new one", got)
	}
	mine[0].a, theirs[0].a = 1, 2
	c.Release()
	if theirs[0].a != 2 || c.Bytes() != 0 {
		t.Error("a Release touched another allocator's values, or kept its own bytes")
	}
	if got := Slabs[rec]().Spare; got != 2 {
		t.Fatalf("%d spare slabs after a Release of two, want 2", got)
	}
	if err := CheckReserve(); err != nil {
		t.Fatal(err)
	}
	if again := c.Take(2); again[0] != (rec{}) || Slabs[rec]().Spare != 1 {
		t.Errorf("the Take after a Release hands out %+v with %d slabs spare, want a zero value of a returned slab", again[0], Slabs[rec]().Spare)
	}
}

// slabOf returns which of c's slabs holds p, -1 for none.
func slabOf(c *Chunks[rec], p *rec) int {
	for k, slab := range c.slabs {
		slab = slab[:cap(slab)]
		for i := range slab {
			if &slab[i] == p {
				return k
			}
		}
	}
	return -1
}

// recycle drives two allocators that share the reserve through the program in
// ops — one byte an operation: who, what, how many — and holds them to the
// contract: every value handed out is zero, no two values alive at once
// overlap, Bytes adds up, and what is back in the reserve at the end is zero
// and held once. Every value handed out is dirtied, so that a slab returned
// with a carved value not cleared shows at its next owner or in the check.
func recycle(t testing.TB, ops []byte) {
	type owner struct {
		c     Chunks[rec]
		live  []*rec
		room  int   // values left in its current slab
		bytes int64 // what Bytes should say
	}
	var owners [2]owner
	before := Slabs[rec]()
	alive := make(map[*rec]int)
	sizes := []int{1, 2, 7, 64, recPer / 2, recPer - 1, recPer, recPer + 1, 2*recPer + 3}
	for pc, op := range ops {
		k := int(op & 1)
		o := &owners[k]
		if op>>1&7 == 7 {
			o.c.Release()
			for _, p := range o.live {
				delete(alive, p)
			}
			o.live, o.room, o.bytes = o.live[:0], 0, 0
		} else {
			n := sizes[int(op>>4)%len(sizes)]
			switch {
			case n >= recPer:
				o.bytes += int64(n * 24)
			case n > o.room:
				o.bytes, o.room = o.bytes+slabBytes, recPer-n
			default:
				o.room -= n
			}
			got := o.c.Take(n)
			if len(got) != n || cap(got) != n {
				t.Fatalf("op %d: Take(%d) has len %d cap %d", pc, n, len(got), cap(got))
			}
			for i := range got {
				p := &got[i]
				if !reflect.ValueOf(p).Elem().IsZero() {
					t.Fatalf("op %d: Take(%d)[%d] of allocator %d hands out %+v, want the zero value", pc, n, i, k, *p)
				}
				if prev, dup := alive[p]; dup {
					t.Fatalf("op %d: Take(%d)[%d] of allocator %d is a live value of allocator %d", pc, n, i, k, prev)
				}
				alive[p] = k
				*p = rec{a: int64(pc) + 1, b: -1, p: p}
				o.live = append(o.live, p)
			}
		}
		if got := o.c.Bytes(); got != o.bytes {
			t.Fatalf("op %d: allocator %d reports %d bytes, want %d", pc, k, got, o.bytes)
		}
	}
	for k := range owners {
		owners[k].c.Release()
	}
	if err := CheckReserve(); err != nil {
		t.Fatal(err)
	}
	if s := Slabs[rec](); s.Drawn-before.Drawn != s.Returned-before.Returned {
		t.Fatalf("%d slabs drawn and %d returned with every allocator released", s.Drawn-before.Drawn, s.Returned-before.Returned)
	}
}

// TestChunksRecycle is FuzzChunksRecycle's contract on seeded programs, for
// the runs that do not fuzz.
func TestChunksRecycle(t *testing.T) {
	DrainReserve()
	defer DrainReserve()
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 40+rng.Intn(400))
		rng.Read(ops)
		recycle(t, ops)
	}
}

func FuzzChunksRecycle(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x0e, 0x51, 0x0f, 0x70, 0x61, 0x0e, 0x00})
	f.Add([]byte{0x50, 0x50, 0x51, 0x0e, 0x51, 0x80, 0x0f, 0x0e})
	f.Fuzz(func(t *testing.T, ops []byte) { recycle(t, ops) })
}
