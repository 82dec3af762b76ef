package core

import (
	"runtime"
	"testing"

	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
)

// allocRegime is one of the ten protocol regimes bench/layers.go times at
// 4x16, with the host allocations four back-to-back calls cost on the Proc
// engine at the commit that still had one goroutine body and one CPS body
// per collective (8be89bc, go1.24, warm pools).
type allocRegime struct {
	name       string
	op         string
	size       int
	alg        Alg
	procBefore uint64
}

var allocRegimes = []allocRegime{
	{"bcast_small", "bcast", 4 << 10, AlgAuto, 2578},
	{"bcast_pipe", "bcast", 16 << 10, AlgAuto, 3440},
	{"bcast_large", "bcast", 512 << 10, AlgAuto, 4337},
	{"reduce_pipe", "reduce", 64 << 10, AlgAuto, 3971},
	{"allreduce_rd", "allreduce", 8 << 10, AlgAuto, 5311},
	{"allreduce_pipe", "allreduce", 64 << 10, AlgAuto, 7665},
	{"allreduce_ring", "allreduce", 256 << 10, AlgRing, 5621},
	{"allreduce_rhd", "allreduce", 256 << 10, AlgRHD, 5410},
	{"allreduce_dualroot", "allreduce", 256 << 10, AlgDualRoot, 7792},
	{"barrier", "barrier", 0, AlgAuto, 2030},
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
// they must stay within 0.3 of them. And the Proc engine must not pay for
// that: its counts stay within 5 % of what the goroutine bodies cost.
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
		t.Logf("%-18s events=%-6d proc allocs=%-6d (%.2f/event, was %d)  task allocs=%-6d (%.2f/event)",
			rg.name, pe, pa, perProc, rg.procBefore, ta, perTask)
		if perTask > perProc+0.3 {
			t.Errorf("%s: %.2f allocs/event on Tasks, want <= %.2f (Procs) + 0.3", rg.name, perTask, perProc)
		}
		if limit := float64(rg.procBefore) * 1.05; float64(pa) > limit {
			t.Errorf("%s: %d allocs on Procs, want <= %.0f (5%% over the goroutine bodies' %d)",
				rg.name, pa, limit, rg.procBefore)
		}
	}
}
