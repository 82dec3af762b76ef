package core

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// allocRegime is a protocol regime at 4x16: one of the ten bench/layers.go
// times, with the back-to-back calls it makes per sample, or one no bench
// regime runs (calls 0): a staged Alltoall or ReduceScatter, and a tree reduce
// whose child nodes get a credit back in every tree (three chunks of a Reduce,
// four a tree of the dual-root pipeline; at the bench's sizes only the one-tree
// pipeline returns one). Each row records the host allocations four
// back-to-back calls cost on either engine (go1.24, warm pools; the largest of
// three runs, which differ by up to 30 objects).
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
// nearly flat across them — the cold run, not the protocol. They fell by 60-430
// on either engine when an operation state became arrays of the operation, with
// no object per node, and a calendar bucket grew out of slabs (recorded
// 1287-1644 and 484-804 before). The Proc counts fell by 64-119 when a
// coroutine became its own continuation instead of binding a method value
// (recorded 1080-1293 before), and by 31-63 when a Proc came from a slab of
// its Env's (recorded 1016-1200 before).
type allocRegime struct {
	name       string
	op         string
	size       int
	alg        Alg
	calls      int
	procAllocs uint64
	taskAllocs uint64
}

var allocRegimes = []allocRegime{
	{"bcast_small", "bcast", 4 << 10, AlgAuto, 16, 1066, 385},
	{"bcast_pipe", "bcast", 16 << 10, AlgAuto, 8, 1036, 385},
	{"bcast_large", "bcast", 512 << 10, AlgAuto, 1, 1143, 463},
	{"reduce_pipe", "reduce", 64 << 10, AlgAuto, 4, 1101, 422},
	{"allreduce_rd", "allreduce", 8 << 10, AlgAuto, 8, 1052, 405},
	{"allreduce_pipe", "allreduce", 64 << 10, AlgAuto, 4, 1100, 453},
	{"allreduce_ring", "allreduce", 256 << 10, AlgRing, 1, 1126, 447},
	{"allreduce_rhd", "allreduce", 256 << 10, AlgRHD, 1, 1095, 444},
	{"allreduce_dualroot", "allreduce", 256 << 10, AlgDualRoot, 1, 1165, 489},
	{"barrier", "barrier", 0, AlgAuto, 32, 983, 305},
	{"alltoall_staged", "alltoall", 4 << 10, AlgAuto, 0, 1007, 359},
	{"reducescatter", "reducescatter", 64 << 10, AlgAuto, 0, 1058, 411},
	{"reduce_pipe_3", "reduce", 192 << 10, AlgAuto, 0, 1099, 451},
	{"allreduce_dualroot_8", "allreduce", 512 << 10, AlgDualRoot, 0, 1136, 490},
}

const (
	allocCalls                 = 4
	regimeRanks, regimeMaxSize = 64, 512 << 10
)

// regimeBuffers returns a send and a receive buffer per rank, large enough for
// every regime.
func regimeBuffers() (send, recv [][]byte) {
	send, recv = make([][]byte, regimeRanks), make([][]byte, regimeRanks)
	for r := range send {
		send[r], recv[r] = make([]byte, regimeMaxSize), make([]byte, regimeMaxSize)
	}
	return send, recv
}

// run performs calls collectives of the regime on every rank of a 4x16
// machine and returns the host allocations and simulator events it took. The
// run's records go back to the reserve afterwards, as srmcoll's runs hand
// theirs back, so that the next run is warm.
func (rg allocRegime) run(t *testing.T, tasks bool, calls int, send, recv [][]byte) (allocs, events uint64) {
	return rg.runWith(t, Options{AllreduceAlg: rg.alg}, tasks, calls, send, recv)
}

// runWith is run with the engine's options given.
func (rg allocRegime) runWith(t *testing.T, opt Options, tasks bool, calls int, send, recv [][]byte) (allocs, events uint64) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(4, 16))
	dom := rma.NewDomain(m)
	s := New(m, dom, opt)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < m.P(); r++ {
		r, snd, rcv := r, send[r][:rg.size], recv[r][:rg.size]
		var rootRecv []byte
		if r == 0 {
			rootRecv = rcv
		}
		blk := rcv[:rg.size/m.P()] // a ReduceScatter's share
		if tasks {
			env.SpawnTask("rank", r, func(tk *sim.Task) {
				left := calls
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
					case "alltoall":
						s.World().AlltoallT(tk, r, snd, rcv, sim.Func(next))
					case "reducescatter":
						s.World().ReduceScatterT(tk, r, snd, blk, dtype.Float64, dtype.Sum, sim.Func(next))
					}
				}
				next()
			})
			continue
		}
		env.SpawnIndexed("rank", r, func(p *sim.Proc) {
			for k := 0; k < calls; k++ {
				switch rg.op {
				case "bcast":
					s.Bcast(p, r, rcv, 0)
				case "reduce":
					s.Reduce(p, r, snd, rootRecv, dtype.Float64, dtype.Sum, 0)
				case "allreduce":
					s.Allreduce(p, r, snd, rcv, dtype.Float64, dtype.Sum)
				case "barrier":
					s.Barrier(p, r)
				case "alltoall":
					block(p, func(t *sim.Task, k sim.K) { s.World().AlltoallT(t, r, snd, rcv, k) })
				case "reducescatter":
					block(p, func(t *sim.Task, k sim.K) {
						s.World().ReduceScatterT(t, r, snd, blk, dtype.Float64, dtype.Sum, k)
					})
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	events = env.Events()
	s.Release()
	dom.Release()
	m.Release()
	return after.Mallocs - before.Mallocs, events
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
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	send, recv := regimeBuffers()
	for _, rg := range allocRegimes {
		// Each measured run directly follows a warm-up of the same engine,
		// which leaves the reserve the records a run of the regime needs.
		rg.run(t, false, allocCalls, send, recv)
		pa, pe := rg.run(t, false, allocCalls, send, recv)
		rg.run(t, true, allocCalls, send, recv)
		ta, te := rg.run(t, true, allocCalls, send, recv)
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

// TestStateAllocsFlat holds every operation state to a fixed number of heap
// objects whatever the node count: the records of a node live in arrays of the
// operation, addressed by node index, and its flags and counters in the
// entry's slabs. It builds the state of each regime at 2, 8 and 32 nodes of 4
// tasks and counts the objects a build makes, less the record slabs the
// reserve had to make for it (bufpool.SlabInfo). What may still grow is the
// entry's list of pooled buffers, by doubling: a few objects, not several a
// node.
func TestStateAllocsFlat(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	ds := dataspec{dtype.Float64, dtype.Sum}
	for _, rg := range allocRegimes {
		var objs []float64
		for _, nodes := range []int{2, 8, 32} {
			env := sim.NewEnv()
			m := machine.New(env, machine.ColonySP(nodes, 4))
			s := New(m, rma.NewDomain(m), Options{AllreduceAlg: rg.alg})
			g := s.World()
			state := func() any {
				switch rg.op {
				case "bcast":
					return newBcastState(g, 0, rg.size)
				case "reduce":
					return newReduceState(g, 0, rg.size, ds)
				case "allreduce":
					return newAllreduceState(g, rg.alg, rg.size, ds)
				case "alltoall":
					return newAlltoallState(g, rg.size/g.Size())
				case "reducescatter":
					return newReduceScatterState(g, rg.size/g.Size(), ds)
				}
				return newBarrierState(g)
			}
			build := func() {
				e := &opEntry{}
				s.build(e, state)
				for _, b := range e.bufs {
					m.Buffers.Put(b)
				}
				e.release()
			}
			build() // the group's embeddings, the engine's trees, the pool and the reserve
			made := bufpool.Reserve().Slabs.Made
			const runs = 10
			n := testing.AllocsPerRun(runs, build)
			objs = append(objs, n-float64(bufpool.Reserve().Slabs.Made-made)/(runs+1))
		}
		t.Logf("%-20s objects a build at 2, 8, 32 nodes: %v", rg.name, objs)
		if grow := objs[2] - objs[0]; grow > 8 {
			t.Errorf("%s: a build makes %v objects at 2, 8 and 32 nodes; %v more at 32 than at 2, want at most 8", rg.name, objs, grow)
		}
	}
}

// TestSchedulesMatchBenchGolden runs the ten regimes of bench/layers.go as it
// does, calls and all, from both forms of body, and holds their event counts to
// the core.<regime>.events bench/golden.json records: a change to any
// collective's schedule fails here, in tier-1 and under the race detector, not
// only in a traced full-length benchmark run.
func TestSchedulesMatchBenchGolden(t *testing.T) {
	raw, err := os.ReadFile("../../bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Layers map[string]float64 `json:"layers"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]uint64)
	for key, v := range golden.Layers {
		if name, ok := strings.CutPrefix(key, "core."); ok {
			if name, ok := strings.CutSuffix(name, ".events"); ok {
				want[name] = uint64(v)
			}
		}
	}
	send, recv := regimeBuffers()
	for _, rg := range allocRegimes {
		if rg.calls == 0 {
			continue
		}
		events, ok := want[rg.name]
		delete(want, rg.name)
		if !ok {
			t.Errorf("%s: bench/golden.json has no core.%[1]s.events", rg.name)
			continue
		}
		for _, form := range []struct {
			name  string
			tasks bool
		}{{"proc", false}, {"task", true}} {
			t.Run(rg.name+"/"+form.name, func(t *testing.T) {
				if _, got := rg.run(t, form.tasks, rg.calls, send, recv); got != events {
					t.Errorf("%d events, bench/golden.json has %d", got, events)
				}
			})
		}
	}
	for name := range want {
		t.Errorf("bench/golden.json pins core.%s.events, which no regime here runs", name)
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
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
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
	if f, c := lastFlag.DescribeWait(-1), lastCntr.DescribeWait(0); !strings.HasSuffix(f, "value 0") || !strings.Contains(c, "value 1,") {
		t.Errorf("a carved flag reads %q and a counter made with 1 reads %q", f, c)
	}
	release := func() {
		e.flagMem.Release()
		e.cntrMem.Release()
	}
	got = testing.AllocsPerRun(1, func() {
		carve()
		release()
	})
	if int(got) > 2*lists+1 {
		t.Errorf("%d flags and %d counters cost %v objects after an entry returned as many, want at most %d: the lists and the entry", n, n, got, 2*lists+1)
	}
	carve()
	if f, c := lastFlag.DescribeWait(-1), lastCntr.DescribeWait(0); !strings.HasSuffix(f, "value 0") || !strings.Contains(c, "value 1,") {
		t.Errorf("a flag carved from a returned slab reads %q and a counter made with 1 reads %q", f, c)
	}
	release()
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
