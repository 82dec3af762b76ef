package bufpool

import (
	"fmt"
	"reflect"
	"sync"
)

// Record memory. A simulation makes its records by the thousand and drops
// them together — tasks, queue items, put frames, executors, the flags and
// counters of one collective call. As heap objects of their own they cost an
// allocation each, and as memory that dies with the run they cost the
// collector a cycle per few megabytes allocated, however small the live heap.
// Chunks carves them from slabs instead, and the slabs have process scope.
//
// Life of a slab. It is ChunkBytes of one record type, all zero, and belongs to
// one owner at a time. A Chunks draws it from the type's stack in the reserve
// (or makes it when the stack is empty), carves values off its front, and
// remembers it. The owner of the Chunks — an Env, an RMA domain, an engine, one
// operation entry — decides when every value carved is dead and calls Release:
// exactly the carved prefix of each slab is cleared and the slabs go back on
// the stack, newest last, so that the next draw finds the one still in cache.
// An owner that cannot tell waits (an aborted operation may have puts on the
// wire until its run is over) or never calls Release (a run that ended in a
// deadlock, a stall or a crash leaves actors parked on its records), and then
// its slabs are the collector's like any other memory: the rule Pool applies to
// a buffer nobody Put. A stack keeps at most slabCap bytes and drops what is
// returned beyond that; and it ages with the payload reserve: every Window/2
// pool hand-backs it sheds the slabs no draw has reached since it last did, so
// what a large run left is gone within Window runs that did not need it.
//
// Clearing. A record is all zero when it is handed out: nothing is kept across
// owners, not even a continuation, since a frame that waits passes itself as
// its continuation (sim.K), which costs nothing.

// ChunkBytes is the size of a slab, whatever it is carved into: the same
// 16 KiB as the slabs protocol slots are carved from (internal/core), large
// enough that a run over tens of thousands of ranks shows the collector
// hundreds of objects where it had one per rank.
const ChunkBytes = 16 << 10

// slabCap bounds the spare slabs of one record type, in bytes. A run over
// 65,536 ranks returns many times that and keeps a slice of it: a spare slab is
// live memory with pointer slots, which every cycle of the collector marks and
// which counts toward the heap goal, so what is kept is what the runs that come
// by the thousand need, not what the largest drew. Six types reach the cap in
// a 65,536-rank RunT (tasks, queue items, flags, counters, executors and
// spin-wait frames), and a ScaleAllreduce of that size adds copy frames: at
// 4 MiB each, rank_ladder's peak RSS read 7 % over what four types at 4 MiB
// gave; at 2.5 MiB it is level.
const slabCap = 5 << 19

// Chunks hands out zero values of T carved from slabs of ChunkBytes. Nothing is
// taken back one by one: the owner calls Release once every value is dead, or
// never (see the life of a slab above). Like Pool it is single-threaded by
// construction; only drawing and returning a slab takes the stack's lock. The
// zero value is ready to use, and a Chunks must not be copied once it has
// handed out a value.
type Chunks[T any] struct {
	cur   []T       // the part of the newest slab not yet handed out
	slabs [][]T     // the slabs drawn, each cut to what was carved from it — but for the newest, cut when it is left
	one   [1][]T    // where slabs starts: most owners of an operation's worth draw one
	stack *stack[T] // the type's, found at the first draw
	bytes int64
}

// New returns a pointer to a zero T.
func (c *Chunks[T]) New() *T { return &c.Take(1)[0] }

// Take returns n zero Ts that are adjacent in memory. A run that does not fit
// the rest of the current slab starts a new one (the rest is abandoned, as with
// a slab of slots); one of a full slab or more is an allocation of its own,
// zero and the collector's from the start, and leaves the current slab as it
// is.
func (c *Chunks[T]) Take(n int) []T {
	if n > len(c.cur) {
		if c.stack == nil {
			c.stack, c.slabs = stackOf[T](), c.one[:0]
		}
		if n >= c.stack.per {
			c.bytes += int64(n * c.stack.size)
			return make([]T, n)
		}
		c.leave()
		c.cur = c.stack.draw()
		c.slabs = append(c.slabs, c.cur)
		c.bytes += int64(c.stack.per * c.stack.size)
	}
	s := c.cur[:n:n]
	c.cur = c.cur[n:]
	return s
}

// leave cuts the newest slab to what has been carved from it.
func (c *Chunks[T]) leave() {
	if k := len(c.slabs) - 1; k >= 0 {
		c.slabs[k] = c.slabs[k][:len(c.slabs[k])-len(c.cur)]
	}
}

// Release ends the life of every value handed out: the slabs return to the
// reserve, cleared where they were carved. The caller vouches that nothing
// points at a value any more — whoever draws the slab next is handed the same
// memory. The Chunks is empty afterwards and may be used again.
func (c *Chunks[T]) Release() {
	if len(c.slabs) > 0 {
		c.leave()
		c.stack.put(c.slabs)
	}
	*c = Chunks[T]{}
}

// Bytes reports how much memory the allocator holds: its slabs, and the
// oversize runs it has made since it was last released.
func (c *Chunks[T]) Bytes() int64 { return c.bytes }

// Frames is a run's free list of records over a Chunks, threaded through the
// values (T embeds Link[T]) so that it allocates nothing of its own.
type Frames[T any, P linked[T]] struct {
	mem  Chunks[T]
	idle *T
	made int
}

// Link is what a record type embeds to be kept on a Frames list.
type Link[T any] struct{ next *T }

func (l *Link[T]) link() **T { return &l.next }

// Next and SetNext let the holder of a value it got from a Frames thread a
// list of its own through the link, which the Frames uses only while the value
// is idle: Get hands it out nil, and Put takes it back.
func (l *Link[T]) Next() *T { return l.next }

// SetNext sets the link of a value in use (Next).
func (l *Link[T]) SetNext(x *T) { l.next = x }

type linked[T any] interface {
	*T
	link() **T
}

// Get returns an idle value, or carves one.
func (f *Frames[T, P]) Get() *T {
	x := f.idle
	if x == nil {
		f.made++
		return f.mem.New()
	}
	next := P(x).link()
	f.idle, *next = *next, nil
	return x
}

// Put clears x, which nothing points at any more, and makes it idle.
func (f *Frames[T, P]) Put(x *T) {
	var zero T
	*x = zero
	*P(x).link() = f.idle
	f.idle = x
}

// Release is Chunks.Release for every value, idle or not.
func (f *Frames[T, P]) Release() {
	f.mem.Release()
	*f = Frames[T, P]{}
}

// Each calls fn with every value carved since the last Release, idle ones too:
// those are zero but for their link.
func (f *Frames[T, P]) Each(fn func(*T)) {
	c := &f.mem
	for k, s := range c.slabs {
		if k == len(c.slabs)-1 {
			s = s[:len(s)-len(c.cur)]
		}
		for i := range s {
			fn(&s[i])
		}
	}
}

// Count reports the values carved since the last Release, and how many are idle.
func (f *Frames[T, P]) Count() (made, idle int) {
	for x := f.idle; x != nil; x = *P(x).link() {
		idle++
	}
	return f.made, idle
}

// stack is the reserve's spare slabs of one record type: all zero, each of per
// values, handed out last in first out.
type stack[T any] struct {
	size, per int // bytes of a T, and how many make a slab

	mu    sync.Mutex
	slabs [][]T
	low   int // the fewest slabs it has held since it last shed: those at the bottom no draw has reached
	age   int // pool hand-backs since it last shed
	SlabInfo
}

// SlabInfo counts the slabs of one record type, or of all: how many wait in
// the reserve, and since the process started how many were made, handed to a
// Chunks (made or not) and returned by a Release (kept or not). For tests.
type SlabInfo struct {
	Spare                 int
	Made, Drawn, Returned uint64
}

// stacks holds the stack of every record type a Chunks has been used with, by
// reflect.Type, so that the reserve can age, drain, check and count them all.
var stacks sync.Map

// typedStack is what the reserve does to a stack without knowing its type.
type typedStack interface {
	tick()
	drain()
	check() error
	info() SlabInfo
}

func stackOf[T any]() *stack[T] {
	t := reflect.TypeFor[T]()
	s, ok := stacks.Load(t)
	if !ok {
		size := max(1, int(t.Size()))
		s, _ = stacks.LoadOrStore(t, &stack[T]{size: size, per: max(1, ChunkBytes/size)})
	}
	return s.(*stack[T])
}

// Slabs reports the counts of T's stack.
func Slabs[T any]() SlabInfo { return stackOf[T]().info() }

// draw returns a zero slab: the one returned last, or a new one.
func (s *stack[T]) draw() []T {
	s.mu.Lock()
	s.Drawn++
	var slab []T
	if n := len(s.slabs) - 1; n >= 0 {
		slab, s.slabs[n], s.slabs = s.slabs[n], nil, s.slabs[:n]
		s.low = min(s.low, n)
	} else {
		s.Made++
	}
	s.mu.Unlock()
	if slab == nil {
		slab = make([]T, s.per)
	}
	return slab
}

// put takes slabs back, each cut to what was carved from it: as many as the cap
// has room for — the newest, which are the likeliest to be in cache still — are
// cleared there and whole again, the rest are dropped as they are.
func (s *stack[T]) put(slabs [][]T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Returned += uint64(len(slabs))
	if room := slabCap/ChunkBytes - len(s.slabs); len(slabs) > room {
		slabs = slabs[len(slabs)-room:]
	}
	for _, slab := range slabs {
		clear(slab)
		s.slabs = append(s.slabs, slab[:cap(slab)])
	}
}

// tick counts one pool hand-back, and every Window/2 of them sheds the slabs
// that lay at the bottom of the stack all the while.
func (s *stack[T]) tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.age++; s.age < Window/2 {
		return
	}
	n := copy(s.slabs, s.slabs[s.low:])
	clear(s.slabs[n:])
	s.slabs, s.low, s.age = s.slabs[:n], n, 0
}

func (s *stack[T]) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.slabs)
	s.slabs, s.low = s.slabs[:0], 0
}

func (s *stack[T]) info() SlabInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Spare = len(s.slabs)
	return s.SlabInfo
}

// check verifies what handing a slab out unseen rests on: no more of them than
// the cap, each whole, all zero, and held once. A value that is not zero is
// named by its first field that is not.
func (s *stack[T]) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := reflect.TypeFor[T]()
	if n, limit := len(s.slabs), slabCap/ChunkBytes; n > limit {
		return fmt.Errorf("bufpool: %d spare slabs of %v, want at most %d", n, name, limit)
	}
	held := make(map[*T]int)
	for k, slab := range s.slabs {
		if len(slab) != s.per || cap(slab) != s.per {
			return fmt.Errorf("bufpool: spare slab %d of %v has len %d cap %d, want %d", k, name, len(slab), cap(slab), s.per)
		}
		if prev, dup := held[&slab[0]]; dup {
			return fmt.Errorf("bufpool: spare slabs %d and %d of %v are the same memory", prev, k, name)
		}
		held[&slab[0]] = k
		for i := range slab {
			v := reflect.ValueOf(&slab[i]).Elem()
			if v.IsZero() {
				continue
			}
			field := ""
			for j := 0; v.Kind() == reflect.Struct && j < v.NumField() && field == ""; j++ {
				if !v.Field(j).IsZero() {
					field = ", in field " + v.Type().Field(j).Name
				}
			}
			return fmt.Errorf("bufpool: value %d of spare slab %d of %v is not zero%s: %+v", i, k, name, field, slab[i])
		}
	}
	return nil
}
