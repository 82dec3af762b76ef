package bufpool

import "testing"

type rec struct {
	a, b int64
	p    *rec
} // 24 bytes: 682 to a chunk

const recPer = ChunkBytes / 24

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
	// The values of one chunk follow one another: appending to the capped run
	// must not reach into what is handed out next.
	next := c.New()
	next.a = 9
	run = append(run, rec{a: 1})
	if next.a != 9 || first.a != 7 {
		t.Fatal("an append to a run overwrote a neighbouring value")
	}
	if got, want := c.Bytes(), int64(firstChunk*24); got != want {
		t.Errorf("Bytes = %d after seven values, want a first chunk of %d", got, want)
	}
}

// TestChunksGrowToFullSize: each chunk is twice the one before, up to
// ChunkBytes' worth.
func TestChunksGrowToFullSize(t *testing.T) {
	var c Chunks[rec]
	var sizes []int64
	for last := int64(0); len(sizes) < 9; {
		c.New()
		if b := c.Bytes(); b != last {
			sizes = append(sizes, (b-last)/24)
			last = b
		}
	}
	want := []int64{8, 16, 32, 64, 128, 256, 512, recPer, recPer}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunks of %v values, want %v", sizes, want)
		}
	}
}

// TestChunksAllocatePerChunk: past the first few, n values cost ceil(n/per)
// heap objects; a run of a full chunk or more costs one of its own.
func TestChunksAllocatePerChunk(t *testing.T) {
	var c Chunks[rec]
	for c.Bytes() < 2*ChunkBytes { // past the small ones
		c.New()
	}
	var last *rec
	const n = 10*recPer + 1
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			last = c.New()
		}
	})
	if want := 11.0; allocs > want || last == nil {
		t.Errorf("%d values cost %v objects, want at most %v", n, allocs, want)
	}

	var d Chunks[rec]
	d.New()
	before := d.Bytes()
	big := d.Take(3 * recPer)
	if len(big) != 3*recPer || d.Bytes()-before != int64(3*recPer*24) {
		t.Errorf("Take of three chunks: len %d, %d bytes", len(big), d.Bytes()-before)
	}
	// The oversize run left the current chunk alone.
	if d.New(); d.Bytes()-before != int64(3*recPer*24) {
		t.Error("a New after an oversize Take started another chunk")
	}
}

// TestChunksCut: values handed out on either side of a Cut share no chunk, the
// chunks after it start small again, and a run that does not fit the rest of
// the chunk starts a new one.
func TestChunksCut(t *testing.T) {
	var c Chunks[rec]
	c.Take(2)
	c.Cut()
	c.Take(2)
	if got, want := c.Bytes(), int64(2*firstChunk*24); got != want {
		t.Errorf("Bytes = %d after a cut, want two first chunks of %d", got, want/2)
	}
	c.Take(firstChunk - 1) // one more than is left
	if got, want := c.Bytes(), int64(4*firstChunk*24); got != want {
		t.Errorf("Bytes = %d: a run longer than the rest of the chunk must start a new one, of twice the size", got)
	}
}
