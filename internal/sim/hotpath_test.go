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
	if len(e.free) == 0 {
		t.Fatal("free list empty after a run; items are not recycled")
	}
	if len(e.free) > 4 {
		t.Fatalf("free list grew to %d for a strictly alternating run", len(e.free))
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
	// 224 bytes: 73 tasks to a 16 KiB chunk. Being the one actor cost a Task
	// two words (its process, its sleep stretch), paid for by packing the
	// three flags into one and the index and track into another.
	if got := reflect.TypeOf(Task{}).Size(); got > 224 {
		t.Fatalf("Task is %d bytes; a parked rank costs that much more", got)
	}
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
	if p.name != "" {
		t.Fatalf("name %q formatted eagerly", p.name)
	}
	if got := p.Name(); got != "rank7" {
		t.Fatalf("Name() = %q, want rank7", got)
	}
	if p.name != "rank7" {
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
	if len(ce.Failures) != 1 || ce.Failures[0].Proc != "rank3" {
		t.Fatalf("failures = %+v, want one for rank3", ce.Failures)
	}
}
