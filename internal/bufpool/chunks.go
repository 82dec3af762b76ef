package bufpool

import "reflect"

// ChunkBytes is about how much a Chunks allocator takes from the heap at a
// time once it is in its stride, whatever it hands out: the same 16 KiB as the
// slabs protocol slots are carved from (internal/core), large enough that a run
// over tens of thousands of ranks shows the collector hundreds of objects where
// it had one per rank.
const ChunkBytes = 16 << 10

// firstChunk is how many values an allocator's first chunk holds. Each chunk
// is twice the one before until ChunkBytes is reached, so an owner that needs
// a dozen values — a collective over eight ranks, a simulation of four tasks —
// does not clear and leave behind 16 KiB for them: with every chunk at full
// size from the start, the benchmark's fault_storm (384 runs of 8 to 64 ranks)
// allocated a fifth fewer objects and still ran 8 % longer.
const firstChunk = 8

// Chunks hands out zeroed values of T carved from chunks of up to ChunkBytes.
// It serves the records a simulation makes by the thousand and drops together
// — tasks, queue items, executors, the flags and counters of one collective
// call — which as heap objects of their own cost an allocation each and give
// the collector that many more objects to find and mark. Nothing is taken
// back: a chunk is garbage when the last value carved from it is, so whoever
// owns a Chunks decides how long its values live together, and Cut ends a
// chunk early where two owners must not share one. Like Pool it is
// single-threaded by construction. The zero value is ready to use.
type Chunks[T any] struct {
	cur   []T   // the part of the newest chunk not yet handed out
	next  int   // how many values the next chunk holds, 0 before the first
	bytes int64 // taken from the allocator so far
}

// New returns a pointer to a zero T.
func (c *Chunks[T]) New() *T { return &c.Take(1)[0] }

// Take returns n zero Ts that are adjacent in memory. A run that does not fit
// the rest of the current chunk starts a new one (the rest is abandoned, as
// with a slab of slots); one of a full chunk or more is an allocation of its
// own and leaves the current chunk as it is.
func (c *Chunks[T]) Take(n int) []T {
	if n > len(c.cur) {
		if s := c.grow(n); s != nil {
			return s
		}
	}
	s := c.cur[:n:n]
	c.cur = c.cur[n:]
	return s
}

// grow makes room for n more values: a new current chunk, or — for n of a
// full chunk or more — the n values themselves.
func (c *Chunks[T]) grow(n int) []T {
	size := max(1, int(reflect.TypeFor[T]().Size()))
	full := max(1, ChunkBytes/size)
	if n >= full {
		c.bytes += int64(n * size)
		return make([]T, n)
	}
	k := min(max(c.next, firstChunk, n), full)
	c.cur, c.next = make([]T, k), 2*k
	c.bytes += int64(k * size)
	return nil
}

// Cut abandons the rest of the current chunk and starts over with small ones:
// values handed out from now on share no chunk with those handed out before,
// and so can die apart from them.
func (c *Chunks[T]) Cut() { c.cur, c.next = nil, 0 }

// Bytes reports how much the allocator has taken from the heap so far: memory
// that becomes garbage when the simulation that owns it ends.
func (c *Chunks[T]) Bytes() int64 { return c.bytes }
