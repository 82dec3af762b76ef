package sim

import (
	"reflect"
	"testing"
)

// The tests in this file cover the hot-path machinery: the event-item free
// list, the heap's pointer hygiene, the processed-event counter, and lazy
// process/resource naming.

func TestEventsCountsExecutedItems(t *testing.T) {
	e := NewEnv()
	if e.Events() != 0 {
		t.Fatalf("fresh env Events() = %d", e.Events())
	}
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1)
		p.Sleep(1)
	})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	// Spawn enqueues one start item and each Sleep one wake item.
	if got := e.Events(); got != 3 {
		t.Fatalf("Events() = %d, want 3", got)
	}
}

func TestItemFreeListRecycles(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1)
		}
	})
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	// Every executed item must come back to the free list once the queue
	// drains; alternation means at most a couple are in flight at once.
	n := 0
	for it := e.free; it != nil; it = it.next {
		if it.k != nil {
			t.Fatal("an item on the free list still holds its continuation")
		}
		n++
	}
	if n == 0 {
		t.Fatal("free list empty after a run; items are not recycled")
	}
	if n > 4 {
		t.Fatalf("free list grew to %d for a strictly alternating run", n)
	}
}

func TestItemStaysInThe48ByteClass(t *testing.T) {
	// Six words. A seventh moves every queued occurrence to the 64-byte
	// size class: a third more memory for the collector to walk, and ~15 %
	// on the far-future queue benchmark when it was tried.
	if got := reflect.TypeOf(item{}).Size(); got > 48 {
		t.Fatalf("item is %d bytes; fold the new field into an existing word", got)
	}
}

func TestTaskStays73ToAChunk(t *testing.T) {
	// 128 bytes: 128 tasks to a 16 KiB chunk, at least the 73 this test was
	// named for when a Task was 224 bytes. TestTaskIsTwoCacheLines says which
	// fields go on which line.
	if got := reflect.TypeOf(Task{}).Size(); got > 128 {
		t.Fatalf("Task is %d bytes; a parked rank costs that much more", got)
	}
}

func TestTaskIsTwoCacheLines(t *testing.T) {
	// 128 bytes: what a resume, a park and a wake-up touch on the first line,
	// the wait's report context, the armed frame and the name on the second.
	// The fields most tasks never touch (a stall's stretch, a pending kill or
	// interrupt, the interrupt handler, the unwind stack, the process, the
	// cached name) are a TaskSide, carved the first time one is needed: at
	// 224 bytes they were 96 of every parked rank's.
	typ := reflect.TypeOf(Task{})
	if got := typ.Size(); got > 128 {
		t.Fatalf("Task is %d bytes; a parked rank costs that much more: put what few tasks use in TaskSide", got)
	}
	for _, name := range []string{"env", "k", "done", "parked", "waitNext", "waitOn"} {
		if f, ok := typ.FieldByName(name); !ok || f.Offset+f.Type.Size() > 64 {
			t.Errorf("Task.%s is past the first cache line (found %v, at %d)", name, ok, f.Offset)
		}
	}
}

// cachedName is the name Task.Name cached, "" when none.
func cachedName(t *Task) string {
	if t.side == nil {
		return ""
	}
	return t.side.name
}

func TestHeapPopClearsSlot(t *testing.T) {
	// heapPop must nil the vacated tail slot so executed items are
	// collectable (or reusable) instead of pinned by the backing array.
	var h eventHeap
	for i := 0; i < 4; i++ {
		heapPush(&h, &item{t: Time(i)})
	}
	arr := h // backing array alias before pops shrink the slice
	for i := 0; i < 4; i++ {
		heapPop(&h)
	}
	for i, it := range arr[:cap(arr)][:4] {
		if it != nil {
			t.Fatalf("slot %d still holds an item after Pop", i)
		}
	}
}

func TestSpawnIndexedNamesLazily(t *testing.T) {
	e := NewEnv()
	var p *Proc
	p = e.SpawnIndexed("rank", 7, func(p *Proc) { p.Sleep(1) })
	if p.own.name != "" {
		t.Fatalf("name %q formatted eagerly", p.own.name)
	}
	if got := p.Name(); got != "rank7" {
		t.Fatalf("Name() = %q, want rank7", got)
	}
	if p.own.name != "rank7" {
		t.Fatal("Name() did not cache")
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnIndexedFailureUsesFormattedName(t *testing.T) {
	e := NewEnv()
	e.SpawnIndexed("rank", 3, func(p *Proc) { panic("kaput") })
	err := e.RunUntil(10)
	ce, ok := err.(*CrashError)
	if !ok {
		t.Fatalf("RunUntil() = %v, want *CrashError", err)
	}
	if len(ce.Failures) != 1 || ce.Failures[0].Proc() != "rank3" {
		t.Fatalf("failures = %+v, want one for rank3", ce.Failures)
	}
}
