package core

import (
	"reflect"
	"runtime"
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// allocRegime is one of the ten protocol regimes bench/layers.go times at
// 4x16, with the host allocations four back-to-back calls cost on either
// engine (go1.24, warm pools; the largest of three runs, which differ by up
// to 30 objects).
//
// History of the Proc counts (barrier): 1037 when a flag and a counter became
// one object each (with three objects each, and one goroutine body and one CPS
// body per collective, 8be89bc, the counts were 1.5-2.2 times that); 1686 when
// Procs moved onto pooled coroutines, because every Env here starts 64 rank
// Procs cold and a cold iter.Pull coroutine is ~13 heap objects where a
// goroutine, its channel and its closure were 3 (a reused coroutine costs 0);
// 1408 now that executors, flags and counters are carved from chunks, endpoints
// are one slab and a remote put recycles its delivery frame; 1337 now that a
// Proc is a Task with a coroutine beside it, which is also all that is left
// between the two columns (a Proc and its cold coroutine, 64 times): the
// waiter slices of the blocking primitives went, and where a regime reads a
// few dozen more than before (bcast_small, reduce_pipe) it is the executor's
// operation queue, which a body that ran on its own stack did not fill. The
// Task counts were 774 before the chunks and are 500 after them: a Task run
// has no coroutines to start, so the records were most of what it allocated.
// The other nine regimes read 1,902-4,156 and 1,034-3,316 until a calendar
// bucket started with carved room (each Env here is fresh, and these calls
// open a timestamp with most of their events) and an operation state asked the
// engine for its node trees and the group for its embedding: what is left is
// nearly flat across them — the cold run, not the protocol.
type allocRegime struct {
	name       string
	op         string
	size       int
	alg        Alg
	procAllocs uint64
	taskAllocs uint64
}

var allocRegimes = []allocRegime{
	{"bcast_small", "bcast", 4 << 10, AlgAuto, 1483, 616},
	{"bcast_pipe", "bcast", 16 << 10, AlgAuto, 1619, 782},
	{"bcast_large", "bcast", 512 << 10, AlgAuto, 1536, 668},
	{"reduce_pipe", "reduce", 64 << 10, AlgAuto, 1494, 657},
	{"allreduce_rd", "allreduce", 8 << 10, AlgAuto, 1563, 724},
	{"allreduce_pipe", "allreduce", 64 << 10, AlgAuto, 1632, 794},
	{"allreduce_ring", "allreduce", 256 << 10, AlgRing, 1605, 749},
	{"allreduce_rhd", "allreduce", 256 << 10, AlgRHD, 1644, 788},
	{"allreduce_dualroot", "allreduce", 256 << 10, AlgDualRoot, 1630, 804},
	{"barrier", "barrier", 0, AlgAuto, 1321, 484},
}

const allocCalls = 4

// run performs allocCalls collectives of the regime on every rank of a 4x16
// machine and returns the host allocations and simulator events it took.
func (rg allocRegime) run(t *testing.T, tasks bool, send, recv [][]byte) (allocs, events uint64) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(4, 16))
	s := New(m, rma.NewDomain(m), Options{AllreduceAlg: rg.alg})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < m.P(); r++ {
		r, snd, rcv := r, send[r][:rg.size], recv[r][:rg.size]
		var rootRecv []byte
		if r == 0 {
			rootRecv = rcv
		}
		if tasks {
			env.SpawnTask("rank", r, func(tk *sim.Task) {
				left := allocCalls
				var next func()
				next = func() {
					if left--; left < 0 {
						return
					}
					switch rg.op {
					case "bcast":
						s.BcastT(tk, r, rcv, 0, next)
					case "reduce":
						s.ReduceT(tk, r, snd, rootRecv, dtype.Float64, dtype.Sum, 0, next)
					case "allreduce":
						s.AllreduceT(tk, r, snd, rcv, dtype.Float64, dtype.Sum, next)
					case "barrier":
						s.BarrierT(tk, r, next)
					}
				}
				next()
			})
			continue
		}
		env.SpawnIndexed("rank", r, func(p *sim.Proc) {
			for k := 0; k < allocCalls; k++ {
				switch rg.op {
				case "bcast":
					s.Bcast(p, r, rcv, 0)
				case "reduce":
					s.Reduce(p, r, snd, rootRecv, dtype.Float64, dtype.Sum, 0)
				case "allreduce":
					s.Allreduce(p, r, snd, rcv, dtype.Float64, dtype.Sum)
				case "barrier":
					s.Barrier(p, r)
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, env.Events()
}

// TestEngineAllocGuard holds the step executor to its two allocation
// promises. Task bodies used to be closure-per-step CPS and cost 0.9-2.7
// more objects per event than the goroutine bodies; driven by the executor
// they must stay within 0.3 of them. And neither engine may slide back toward
// multi-object flags and counters, per-wait closures or a heap object per
// executor, flag, counter or put: the counts of both stay within 10 % of the
// recorded ones.
func TestEngineAllocGuard(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ranks, maxSize = 64, 512 << 10
	send, recv := make([][]byte, ranks), make([][]byte, ranks)
	for r := range send {
		send[r], recv[r] = make([]byte, maxSize), make([]byte, maxSize)
	}
	for _, rg := range allocRegimes {
		// Each measured run directly follows a warm-up of the same engine:
		// the primitives' continuation frames live in sync.Pools, which
		// survive the one collection run starts with but not two.
		rg.run(t, false, send, recv)
		pa, pe := rg.run(t, false, send, recv)
		rg.run(t, true, send, recv)
		ta, te := rg.run(t, true, send, recv)
		if pe != te {
			t.Errorf("%s: %d events on Procs, %d on Tasks", rg.name, pe, te)
		}
		perProc, perTask := float64(pa)/float64(pe), float64(ta)/float64(te)
		t.Logf("%-18s events=%-6d proc allocs=%-6d (%.2f/event, recorded %d)  task allocs=%-6d (%.2f/event, recorded %d)",
			rg.name, pe, pa, perProc, rg.procAllocs, ta, perTask, rg.taskAllocs)
		if perTask > perProc+0.3 {
			t.Errorf("%s: %.2f allocs/event on Tasks, want <= %.2f (Procs) + 0.3", rg.name, perTask, perProc)
		}
		for _, e := range []struct {
			engine        string
			got, recorded uint64
		}{{"Procs", pa, rg.procAllocs}, {"Tasks", ta, rg.taskAllocs}} {
			if limit := float64(e.recorded) * 1.10; float64(e.got) > limit {
				t.Errorf("%s: %d allocs on %s, want <= %.0f (10%% over the recorded %d)",
					rg.name, e.got, e.engine, limit, e.recorded)
			}
		}
	}
}

// TestSyncObjectAllocGuard holds the synchronization objects to what they cost
// since an operation carves them: the flags and counters of a protocol state
// come out of slabs of bufpool.ChunkBytes, so n of them are a slab per
// ChunkBytes of them and not an object each — and nothing at all when an
// operation before them has returned its slabs; no slab is shared by two
// operation entries, so each can give its own back when it is over; and a Task
// that parks on a flag and is released by a Set allocates nothing once the
// frame pool and the item free list are warm.
func TestSyncObjectAllocGuard(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	bufpool.DrainReserve()
	defer bufpool.DrainReserve()
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 2))
	s := New(m, rma.NewDomain(m), Options{})

	const n, lists = 1000, 3 // an entry's list of slabs starts with room for one and doubles
	flagSize, cntrSize := int(reflect.TypeFor[shm.Flag]().Size()), int(reflect.TypeFor[rma.Counter]().Size())
	slabs := func(size int) int {
		per := bufpool.ChunkBytes / size
		return (n + per - 1) / per
	}
	var lastFlag *shm.Flag
	var lastCntr *rma.Counter
	var e *opEntry
	carve := func() {
		e = &opEntry{}
		s.build(e, func() any {
			for i := 0; i < n; i++ {
				lastFlag = s.flag(0)
				lastCntr = s.counter(1, trace.ClassWaitCredit)
			}
			return nil
		})
	}
	got := testing.AllocsPerRun(1, carve)
	if want := slabs(flagSize) + slabs(cntrSize) + 2*lists + 1; int(got) > want { // and the entry
		t.Errorf("%d flags of %d bytes and %d counters of %d cost %v objects, want at most %d (a slab per %d bytes, %d lists each, and one)",
			n, flagSize, n, cntrSize, got, want, bufpool.ChunkBytes, lists)
	}
	if lastFlag.Load() != 0 || lastCntr.Value() != 1 {
		t.Errorf("a carved flag reads %d and a counter made with 1 reads %d", lastFlag.Load(), lastCntr.Value())
	}
	got = testing.AllocsPerRun(1, func() {
		carve()
		if lastFlag.Load() != 0 || lastCntr.Value() != 1 {
			t.Errorf("a flag carved from a returned slab reads %d and a counter made with 1 reads %d", lastFlag.Load(), lastCntr.Value())
		}
		e.flagMem.Release()
		e.cntrMem.Release()
	})
	if int(got) > 2*lists+1 {
		t.Errorf("%d flags and %d counters cost %v objects after an entry returned as many, want at most %d: the lists and the entry", n, n, got, 2*lists+1)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("carving outside Group.acquire did not panic")
			}
		}()
		s.flag(0)
	}()

	// Two operations in flight on one group: rank 0 has entered both. A barrier
	// over 2x2 ranks carves four flags and two counters; a slab has room for
	// hundreds, and the second operation must leave that room alone and draw
	// slabs of its own — an entry returns whole slabs.
	g := s.World()
	for i := 0; i < 2; i++ {
		b := g.acquire(s.exec(nil, nil), 0, func() any { return newBarrierState(g) }).(*barrierState)
		if len(b.flags) != 2 || len(b.flags[0]) != 2 || len(b.cnt[0]) != 1 {
			t.Fatalf("a 2x2 barrier state of %d nodes, %d flags and %d counters a node", len(b.flags), len(b.flags[0]), len(b.cnt[0]))
		}
	}
	if len(g.ops) != 2 {
		t.Fatalf("%d operations in flight, want 2", len(g.ops))
	}
	for i, e := range g.ops {
		flagSlab, cntrSlab := int64(bufpool.ChunkBytes/flagSize*flagSize), int64(bufpool.ChunkBytes/cntrSize*cntrSize)
		if f, c := e.flagMem.Bytes(), e.cntrMem.Bytes(); f != flagSlab || c != cntrSlab {
			t.Errorf("barrier entry %d holds %d bytes of flag slabs and %d of counter slabs, want one of each (%d, %d): each entry must draw its own", i, f, c, flagSlab, cntrSlab)
		}
	}

	// Two tasks hand a pair of flags back and forth for ever; every WaitGET
	// finds its flag short of the value and parks until the other side's Set
	// has paid the wake latency.
	ping, pong := shm.NewFlag(m, 0), shm.NewFlag(m, 0)
	parks := 0
	env.SpawnTask("ping", -1, func(tk *sim.Task) {
		k := 0
		var next func()
		next = func() {
			k++
			ping.Set(k)
			parks++
			pong.WaitGET(tk, k, next)
		}
		next()
	})
	env.SpawnTask("pong", -1, func(tk *sim.Task) {
		k := 0
		var next, reply func()
		reply = func() { pong.Set(k); next() }
		next = func() {
			k++
			parks++
			ping.WaitGET(tk, k, reply)
		}
		next()
	})
	// Warm-up: the items and wait frames, and one calendar year, so that
	// every bucket of the wheel has its run array.
	limit := sim.Time(4200)
	if err := env.RunUntil(limit); err != nil {
		t.Fatal(err)
	}
	slice := func() {
		limit += 50
		if err := env.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
	}
	before := parks
	if n := testing.AllocsPerRun(10, slice); n != 0 {
		t.Errorf("a parked WaitGET + Set round trip allocates: %v objects per 50 us slice", n)
	}
	if parks-before < 100 {
		t.Fatalf("only %d waits in the measured slices; the guard measured nothing", parks-before)
	}
}
