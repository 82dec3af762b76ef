package core

import (
	"runtime"
	"testing"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
)

// allocRegime is one of the ten protocol regimes bench/layers.go times at
// 4x16, with the host allocations four back-to-back calls cost on the Proc
// engine (go1.24, warm pools; the largest of three runs, which differ by up
// to 60 objects) at the commit that made a flag and a counter one object
// each. With three objects each, and one goroutine body and one CPS body per
// collective (8be89bc), the counts were 1.5-2.2 times these.
//
// Re-recorded when Procs moved onto pooled coroutines: each count rose by
// about 650 (barrier 1037 -> 1686) because every Env here starts 64 rank
// Procs cold, and a cold iter.Pull coroutine is ~13 heap objects where a
// goroutine, its channel and its closure were 3. A reused coroutine costs 0,
// which is what runs that spawn helpers per request see; the end-to-end
// allocs_per_rep columns of bench/ are the guard that matters there.
type allocRegime struct {
	name       string
	op         string
	size       int
	alg        Alg
	procAllocs uint64
}

var allocRegimes = []allocRegime{
	{"bcast_small", "bcast", 4 << 10, AlgAuto, 2103},
	{"bcast_pipe", "bcast", 16 << 10, AlgAuto, 2954},
	{"bcast_large", "bcast", 512 << 10, AlgAuto, 3486},
	{"reduce_pipe", "reduce", 64 << 10, AlgAuto, 3035},
	{"allreduce_rd", "allreduce", 8 << 10, AlgAuto, 3136},
	{"allreduce_pipe", "allreduce", 64 << 10, AlgAuto, 5451},
	{"allreduce_ring", "allreduce", 256 << 10, AlgRing, 3398},
	{"allreduce_rhd", "allreduce", 256 << 10, AlgRHD, 3284},
	{"allreduce_dualroot", "allreduce", 256 << 10, AlgDualRoot, 5403},
	{"barrier", "barrier", 0, AlgAuto, 1686},
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
// multi-object flags and counters or per-wait closures: the Proc counts stay
// within 10 % of the recorded ones.
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
		t.Logf("%-18s events=%-6d proc allocs=%-6d (%.2f/event, recorded %d)  task allocs=%-6d (%.2f/event)",
			rg.name, pe, pa, perProc, rg.procAllocs, ta, perTask)
		if perTask > perProc+0.3 {
			t.Errorf("%s: %.2f allocs/event on Tasks, want <= %.2f (Procs) + 0.3", rg.name, perTask, perProc)
		}
		if limit := float64(rg.procAllocs) * 1.10; float64(pa) > limit {
			t.Errorf("%s: %d allocs on Procs, want <= %.0f (10%% over the recorded %d)",
				rg.name, pa, limit, rg.procAllocs)
		}
	}
}

// Sinks keep the constructors' results reachable, so the objects are heap
// allocated as they are for every real caller.
var (
	sinkFlag    *shm.Flag
	sinkCounter *rma.Counter
)

// TestSyncObjectAllocGuard holds the synchronization primitives to what they
// cost since their conditions were embedded: a flag and a counter are one
// heap object each, and a Task that parks on a flag and is released by a Set
// allocates nothing once the frame pool and the item free list are warm.
func TestSyncObjectAllocGuard(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(1, 2))
	if n := testing.AllocsPerRun(100, func() { sinkFlag = shm.NewFlag(m, 0) }); n != 1 {
		t.Errorf("shm.NewFlag allocates %v objects, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkCounter = rma.NewCounter(env, 0) }); n != 1 {
		t.Errorf("rma.NewCounter allocates %v objects, want 1", n)
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
