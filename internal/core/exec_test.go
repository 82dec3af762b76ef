package core

import (
	"reflect"
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/tree"
)

func TestExecIsTenCacheLines(t *testing.T) {
	// 512 bytes, eight cache lines: 32 executors to a slab where four
	// 144-byte ops inline made 968 bytes and 16, and three 88-byte ops and
	// two frames made 640 and 25. The massive-rank allreduce holds one per
	// rank for its whole call, at 16,384 ranks 8 MiB of fault_storm's peak.
	// A whole number of cache lines, so that what resume and run read on
	// every visit is on one line of each executor in a slab. An op of 80
	// bytes is what three of them inline leave room for; an SMP stage's
	// frame is not inline (subFrame).
	if got := reflect.TypeOf(op{}).Size(); got > 80 {
		t.Errorf("op is %d bytes; put a rare operand in exec.rare", got)
	}
	size := reflect.TypeOf(exec{}).Size()
	if size > 512 || size%64 != 0 {
		t.Errorf("exec is %d bytes; want a multiple of 64 no larger than 512", size)
	}
	if per := bufpool.ChunkBytes / size; per < 32 {
		t.Errorf("%d executors to a slab, want >= 32", per)
	}
	for _, name := range []string{"t", "s", "resumeFn", "ep", "armed", "fired", "qh", "qn", "bits", "depth", "node"} {
		if f, _ := reflect.TypeOf(exec{}).FieldByName(name); f.Offset+f.Type.Size() > 64 {
			t.Errorf("exec.%s is past the first cache line, at %d", name, f.Offset)
		}
	}
}

// TestExecQueueFitsInline runs every step the bench regimes, the SMP broadcast
// variants and the allreduce families take over each kind of inter-node tree,
// from both forms of body. A step that queues more operations than exec.q
// holds panics, and the run fails: the queue never grows onto the heap.
func TestExecQueueFitsInline(t *testing.T) {
	send, recv := regimeBuffers()
	check := func(name string, rg allocRegime, opt Options) {
		for _, tasks := range []bool{false, true} {
			_, events := rg.runWith(t, opt, tasks, 1, send, recv)
			if events == 0 {
				t.Errorf("%s (tasks %v): no events", name, tasks)
			}
		}
	}
	for _, rg := range allocRegimes {
		check(rg.name+"/flat", rg, Options{AllreduceAlg: rg.alg})
		check(rg.name+"/tree-smp", rg, Options{AllreduceAlg: rg.alg, TreeSMPBcst: true})
		check(rg.name+"/barrier-smp", rg, Options{AllreduceAlg: rg.alg, BarrierSMPBcst: true})
		if rg.op != "allreduce" {
			continue
		}
		for k := tree.Binomial; k <= tree.Bine; k++ {
			check(rg.name+"/"+k.String(), rg, Options{AllreduceAlg: rg.alg, InterTree: k})
		}
	}
}
