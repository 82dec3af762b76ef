package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"srmcoll"
	"srmcoll/internal/baseline"
	"srmcoll/internal/bufpool"
	"srmcoll/internal/core"
	"srmcoll/internal/dtype"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/mpi"
	"srmcoll/internal/rma"
	"srmcoll/internal/scale"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
	"srmcoll/internal/tune"
)

// Layer drivers: small closed loops that time calls into one module's
// public functions, so a change to a layer has a number of its own next
// to the end-to-end metric it should move (README, "How the metrics
// interact"). They are the only code in bench/ that imports
// srmcoll/internal/<layer>. Every value is the median over the driver's
// samples; short drivers vary by +-20 % on a small sandbox, so they carry
// no bound.

type drivers struct {
	sp     *spans
	parent int // span the layer spans hang under
	smoke  bool
	seed   uint64

	out       map[string]float64
	samples   map[string]int
	layer     string
	layerSpan int

	coreSend, coreRecv *arena // the 64 ranks' buffers of the core drivers, shared by every regime
}

// pick returns full, or the scaled-down smoke value for tests.
func (d *drivers) pick(full, smoke int) int {
	if d.smoke {
		return smoke
	}
	return full
}

// measure records the median of n samples of fn under the metric's name,
// with a layer -> metric -> sample span around each.
func (d *drivers) measure(name string, n int, fn func() float64) {
	if layer, _, _ := strings.Cut(name, "."); layer != d.layer {
		d.sp.end(d.layerSpan)
		d.layer, d.layerSpan = layer, d.sp.begin("layer:"+layer, d.parent)
	}
	if d.smoke {
		n = 2
	}
	ms := d.sp.begin(name, d.layerSpan)
	vals := make([]float64, n)
	for i := range vals {
		id := d.sp.begin("sample", ms)
		vals[i] = fn()
		d.sp.end(id)
	}
	d.sp.end(ms)
	d.out[name], d.samples[name] = median(vals), n
}

// set records an exact value that is not a median of timed samples.
func (d *drivers) set(name string, v float64) { d.out[name], d.samples[name] = v, 1 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// perOp times fn and returns host nanoseconds per operation.
func perOp(ops int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

func mustRun(env *sim.Env) {
	if err := env.Run(); err != nil {
		panic(err)
	}
}

// loopT runs step n times on a Task in continuation-passing style, then
// done: the CPS spelling of `for i := 0; i < n; i++ { step(i) }`.
func loopT(n int, step func(i int, next func()), done func()) {
	i := 0
	var next func()
	next = func() {
		if i == n {
			done()
			return
		}
		i++
		step(i-1, next)
	}
	next()
}

func runLayerDrivers(sp *spans, parent int, seed uint64, smoke bool) (map[string]float64, map[string]int) {
	d := &drivers{sp: sp, parent: parent, smoke: smoke, seed: seed,
		out: map[string]float64{}, samples: map[string]int{}, layerSpan: -1,
		coreSend: newArena(64, 512<<10), coreRecv: newArena(64, 512<<10)}
	newRNG(seed, "layer.core").fillInts(d.coreSend.buf)
	d.simLayer()
	d.machineLayer()
	d.shmLayer()
	d.rmaLayer()
	d.bufpoolLayer()
	d.mpiLayer()
	d.dtypeLayer()
	d.treeLayer()
	d.coreLayer()
	d.scaleLayer()
	d.srmcollLayer()
	d.traceLayer()
	d.sp.end(d.layerSpan)
	return d.out, d.samples
}

// ---- sim: event queue, Proc and Task switches, Cond wake-ups ----

func (d *drivers) simLayer() {
	rg := newRNG(d.seed, "layer.sim")
	n := d.pick(1<<18, 1<<12)
	queue := func(at func() float64) func() float64 {
		times := make([]float64, n)
		for i := range times {
			times[i] = at()
		}
		fn := func() {}
		return func() float64 {
			env := sim.NewEnv()
			return perOp(n, func() {
				for _, t := range times {
					env.At(t, fn)
				}
				mustRun(env)
			})
		}
	}
	// SPMD phases schedule thousands of events on one timestamp: the
	// calendar buckets degenerate into deep (time, seq) heaps.
	d.measure("sim.queue_tie_ns", 7, queue(func() float64 { return float64(rg.intn(64)) }))
	d.measure("sim.queue_spread_ns", 7, queue(func() float64 { return 2000 * rg.float() }))
	// Ack, heartbeat and deadline timers land 0.1-1 s ahead: the overflow
	// heap and its migration into the wheel.
	d.measure("sim.queue_far_ns", 7, queue(func() float64 { return 1e5 + 9e5*rg.float() }))

	const switchers = 64
	sw := d.pick(1<<16, 1<<11) / switchers
	d.measure("sim.proc_switch_ns", 15, func() float64 {
		env := sim.NewEnv()
		for i := 0; i < switchers; i++ {
			env.SpawnIndexed("p", i, func(p *sim.Proc) {
				for k := 0; k < sw; k++ {
					p.Sleep(1)
				}
			})
		}
		return perOp(switchers*sw, func() { mustRun(env) })
	})
	d.measure("sim.task_switch_ns", 15, func() float64 {
		env := sim.NewEnv()
		for i := 0; i < switchers; i++ {
			env.SpawnTask("t", i, func(t *sim.Task) {
				loopT(sw, func(_ int, next func()) { t.SleepThen(1, next) }, func() {})
			})
		}
		return perOp(switchers*sw, func() { mustRun(env) })
	})

	waiters := d.pick(1024, 64)
	rounds := d.pick(1<<16, 1<<10) / waiters
	d.measure("sim.cond_wake_proc_ns", 15, func() float64 {
		env := sim.NewEnv()
		c := env.NewCond()
		for i := 0; i < waiters; i++ {
			env.SpawnIndexed("w", i, func(p *sim.Proc) {
				for k := 0; k < rounds; k++ {
					c.Wait(p)
				}
			})
		}
		env.Spawn("b", func(p *sim.Proc) {
			for k := 0; k < rounds; k++ {
				p.Sleep(1)
				c.Broadcast()
			}
		})
		return perOp(waiters*rounds, func() { mustRun(env) })
	})
	d.measure("sim.cond_wake_task_ns", 15, func() float64 {
		env := sim.NewEnv()
		c := env.NewCond()
		for i := 0; i < waiters; i++ {
			env.SpawnTask("w", i, func(t *sim.Task) {
				loopT(rounds, func(_ int, next func()) { c.WaitT(t, next) }, func() {})
			})
		}
		env.SpawnTask("b", -1, func(t *sim.Task) {
			loopT(rounds, func(_ int, next func()) {
				t.SleepThen(1, func() { c.Broadcast(); next() })
			}, func() {})
		})
		return perOp(waiters*rounds, func() { mustRun(env) })
	})

	// Footprint of a parked rank on either engine: what bounds the rank
	// count a host can hold.
	parkedTasks := d.pick(1<<18, 1<<12)
	d.measure("sim.task_bytes", 1, func() float64 {
		env := sim.NewEnv()
		c := env.NewCond()
		before := heapAndStack()
		for i := 0; i < parkedTasks; i++ {
			env.SpawnTask("t", i, func(t *sim.Task) { c.WaitT(t, func() {}) })
		}
		_ = env.Run() // every task parks: the run ends in the deadlock report
		per := float64(heapAndStack()-before) / float64(parkedTasks)
		runtime.KeepAlive(env)
		return per
	})
	parkedProcs := d.pick(4096, 256)
	d.measure("sim.proc_bytes", 1, func() float64 {
		env := sim.NewEnv()
		c := env.NewCond()
		before := heapAndStack()
		var parked int64
		for i := 0; i < parkedProcs; i++ {
			env.SpawnIndexed("p", i, func(p *sim.Proc) { c.Wait(p) })
		}
		env.Spawn("b", func(p *sim.Proc) {
			p.Sleep(1)
			// Every rank is parked: measure, then let the goroutines go.
			parked = heapAndStack() - before
			c.Broadcast()
		})
		mustRun(env)
		return float64(parked) / float64(parkedProcs)
	})
}

// heapAndStack returns live heap plus goroutine stack bytes after a
// collection.
func heapAndStack() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc + ms.StackInuse)
}

// ---- machine: contended copy charges, real memcpy, tiered injection ----

func (d *drivers) machineLayer() {
	const contenders = 16
	per := d.pick(1<<16, 1<<10) / contenders
	d.measure("machine.charge_copy_proc_ns", 15, func() float64 {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(1, contenders))
		for i := 0; i < contenders; i++ {
			env.SpawnIndexed("r", i, func(p *sim.Proc) {
				for k := 0; k < per; k++ {
					m.ChargeCopy(p, 0, 4096)
				}
			})
		}
		return perOp(contenders*per, func() { mustRun(env) })
	})
	d.measure("machine.charge_copy_task_ns", 15, func() float64 {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(1, contenders))
		for i := 0; i < contenders; i++ {
			env.SpawnTask("r", i, func(t *sim.Task) {
				loopT(per, func(_ int, next func()) { m.ChargeCopyT(t, 0, 4096, next) }, func() {})
			})
		}
		return perOp(contenders*per, func() { mustRun(env) })
	})

	const block = 256 << 10
	src, dst := d.noise(block), make([]byte, block)
	copies := d.pick(256, 8)
	d.measure("machine.memcpy_gbps", 15, func() float64 {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(1, 1))
		env.Spawn("r", func(p *sim.Proc) {
			for k := 0; k < copies; k++ {
				m.Memcpy(p, 0, dst, src)
			}
		})
		return block / perOp(copies, func() { mustRun(env) }) // bytes/ns = GB/s
	})

	injects := d.pick(1<<16, 1<<10)
	d.measure("machine.net_inject_ns", 15, func() float64 {
		cfg := machine.HierColonySP(64, 8, 4, 4) // leaf 4, groups of 4 leaves, implied top tier
		m := machine.New(sim.NewEnv(), cfg)
		return perOp(injects, func() {
			for k := 0; k < injects; k++ {
				m.NetInjectTo(k%64, (k*7+13)%64, 4096)
			}
		})
	})
}

// noise returns n seeded bytes: real payloads, not the kernel's shared
// zero page.
func (d *drivers) noise(n int) []byte {
	b := make([]byte, n)
	newRNG(d.seed, "layer.noise").fillInts(b)
	return b
}

// ---- shm: flag hand-offs inside one node ----

func (d *drivers) shmLayer() {
	rounds := d.pick(1<<15, 1<<9)
	d.measure("shm.flag_pingpong_proc_ns", 15, func() float64 {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(1, 2))
		a, b := shm.NewFlag(m, 0), shm.NewFlag(m, 0)
		env.Spawn("ping", func(p *sim.Proc) {
			for k := 1; k <= rounds; k++ {
				a.Set(k)
				b.WaitFor(p, k)
			}
		})
		env.Spawn("pong", func(p *sim.Proc) {
			for k := 1; k <= rounds; k++ {
				a.WaitFor(p, k)
				b.Set(k)
			}
		})
		return perOp(2*rounds, func() { mustRun(env) })
	})
	d.measure("shm.flag_pingpong_task_ns", 15, func() float64 {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(1, 2))
		a, b := shm.NewFlag(m, 0), shm.NewFlag(m, 0)
		env.SpawnTask("ping", -1, func(t *sim.Task) {
			loopT(rounds, func(k int, next func()) { a.Set(k + 1); b.WaitForT(t, k+1, next) }, func() {})
		})
		env.SpawnTask("pong", -1, func(t *sim.Task) {
			loopT(rounds, func(k int, next func()) { a.WaitForT(t, k+1, func() { b.Set(k + 1); next() }) }, func() {})
		})
		return perOp(2*rounds, func() { mustRun(env) })
	})

	// The SMP reduce shape: a master waits for 15 workers' flags, then
	// releases them. One operation = one worker's flag observed.
	const tpn = 16
	gathers := d.pick(1<<12, 1<<6)
	d.measure("shm.flagset_waitall_proc_ns", 15, func() float64 {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(1, tpn))
		fs, release := shm.NewFlagSet(m, 0, tpn), shm.NewFlag(m, 0)
		env.SpawnIndexed("r", 0, func(p *sim.Proc) {
			for k := 1; k <= gathers; k++ {
				fs.WaitAll(p, k, 0)
				release.Set(k)
			}
		})
		for i := 1; i < tpn; i++ {
			i := i
			env.SpawnIndexed("r", i, func(p *sim.Proc) {
				for k := 1; k <= gathers; k++ {
					fs.Flag(i).Set(k)
					release.WaitGE(p, k)
				}
			})
		}
		return perOp((tpn-1)*gathers, func() { mustRun(env) })
	})
	d.measure("shm.flagset_waitall_task_ns", 15, func() float64 {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(1, tpn))
		fs, release := shm.NewFlagSet(m, 0, tpn), shm.NewFlag(m, 0)
		env.SpawnTask("r", 0, func(t *sim.Task) {
			loopT(gathers, func(k int, next func()) {
				fs.WaitAllT(t, k+1, func() { release.Set(k + 1); next() }, 0)
			}, func() {})
		})
		for i := 1; i < tpn; i++ {
			env.SpawnTask("r", i, func(t *sim.Task) {
				loopT(gathers, func(k int, next func()) {
					fs.Flag(t.Num()).Set(k + 1)
					release.WaitGET(t, k+1, next)
				}, func() {})
			})
		}
		return perOp((tpn-1)*gathers, func() { mustRun(env) })
	})
}

// ---- rma: put round trips between two nodes ----

// putRoundTrips runs n round trips of a size-byte put from rank 0 to rank
// 1 answered by a zero-byte ack, on procs or tasks, and returns the
// machine so callers can read its counters.
func putRoundTrips(n, size int, tasks bool, plan *fault.Plan, payload []byte) (*machine.Machine, *sim.Env) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 1))
	if plan != nil {
		m.Faults = fault.New(*plan)
	}
	dom := rma.NewDomain(m)
	if plan != nil && plan.Reliable {
		dom.EnableReliable(plan.AckTimeout, plan.BackoffCap)
	}
	e0, e1 := dom.Endpoint(0), dom.Endpoint(1)
	landed, acked := dom.NewCounter(0), dom.NewCounter(0)
	src, dst := payload[:size], make([]byte, size)
	if tasks {
		env.SpawnTask("origin", -1, func(t *sim.Task) {
			loopT(n, func(_ int, next func()) {
				e0.PutT(t, e1, dst, src, nil, landed, nil, func() { e0.WaitcntrT(t, acked, 1, next) })
			}, func() {})
		})
		env.SpawnTask("target", -1, func(t *sim.Task) {
			loopT(n, func(_ int, next func()) {
				e1.WaitcntrT(t, landed, 1, func() { e1.PutZeroT(t, e0, acked, next) })
			}, func() {})
		})
		return m, env
	}
	env.Spawn("origin", func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			e0.Put(p, e1, dst, src, nil, landed, nil)
			e0.Waitcntr(p, acked, 1)
		}
	})
	env.Spawn("target", func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			e1.Waitcntr(p, landed, 1)
			e1.PutZero(p, e0, acked)
		}
	})
	return m, env
}

func (d *drivers) rmaLayer() {
	payload := d.noise(512 << 10)
	rts := d.pick(1<<13, 1<<7)
	rt := func(size int, tasks bool, n int) func() float64 {
		return func() float64 {
			_, env := putRoundTrips(n, size, tasks, nil, payload)
			return perOp(n, func() { mustRun(env) })
		}
	}
	d.measure("rma.put_rt_proc_ns", 15, rt(1<<10, false, rts))
	d.measure("rma.put_rt_task_ns", 15, rt(1<<10, true, rts))
	large := d.pick(128, 4)
	d.measure("rma.put_large_gbps", 15, func() float64 {
		return (512 << 10) / rt(512<<10, false, large)()
	})

	// A lossy wire under reliable delivery: the ack/retransmit timers of
	// fault_storm. The retry count is a pure function of the seed.
	plan := &fault.Plan{Seed: newRNG(d.seed, "layer.rma").derive(), Drop: 0.05, Reliable: true}
	var retries float64
	d.measure("rma.reliable_put_ns", 15, func() float64 {
		m, env := putRoundTrips(rts, 1<<10, false, plan, payload)
		ns := perOp(2*rts, func() { mustRun(env) })
		retries = float64(m.Stats.Retries) / float64(2*rts)
		return ns
	})
	d.set("rma.retries_per_put", retries)
}

// ---- bufpool ----

func (d *drivers) bufpoolLayer() {
	// The size classes an SRM pipeline asks for: chunk snapshots, a few
	// whole-message snapshots, control words.
	mix := [...]int{16 << 10, 16 << 10, 64, 16 << 10, 64 << 10, 16 << 10, 8 << 10, 64}
	ops := d.pick(1<<18, 1<<12)
	d.measure("bufpool.get_put_ns", 15, func() float64 {
		p := bufpool.New()
		var held [4][]byte
		return perOp(ops, func() {
			for k := 0; k < ops; k++ {
				p.Put(held[k%len(held)])
				held[k%len(held)] = p.Get(mix[k%len(mix)])
			}
		})
	})
	d.measure("bufpool.hit_ratio", 1, func() float64 {
		m, _ := d.coreRun(coreRegimes[5], false, 4) // allreduce_pipe, 64 KiB
		gets, hits := m.Buffers.Stats()
		return float64(hits) / float64(gets)
	})
}

// ---- mpi and the baseline collectives built on it ----

func (d *drivers) mpiLayer() {
	payload := d.noise(256 << 10)
	rt := func(size, n int) func() float64 {
		return func() float64 {
			env := sim.NewEnv()
			m := machine.New(env, machine.ColonySP(2, 1))
			w := mpi.NewWorld(m, mpi.IBM())
			buf0, buf1 := make([]byte, size), make([]byte, size)
			env.Spawn("r0", func(p *sim.Proc) {
				for k := 0; k < n; k++ {
					w.Rank(0).Send(p, 1, 0, payload[:size])
					w.Rank(0).Recv(p, 1, 0, buf0)
				}
			})
			env.Spawn("r1", func(p *sim.Proc) {
				for k := 0; k < n; k++ {
					w.Rank(1).Recv(p, 0, 0, buf1)
					w.Rank(1).Send(p, 0, 0, buf1)
				}
			})
			return perOp(n, func() { mustRun(env) })
		}
	}
	d.measure("mpi.eager_rt_ns", 15, rt(1<<10, d.pick(1<<12, 1<<6)))
	d.measure("mpi.rndv_rt_ns", 15, rt(256<<10, d.pick(128, 4)))

	calls := d.pick(16, 2)
	bufs := newArena(64, 4<<10)
	d.measure("baseline.bcast_4k_ns_per_event", 15, func() float64 {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(4, 16))
		start := time.Now()
		coll := baseline.New(m, baseline.IBM)
		for r := 0; r < m.P(); r++ {
			env.SpawnIndexed("rank", r, func(p *sim.Proc) {
				for k := 0; k < calls; k++ {
					coll.Bcast(p, r, bufs.row(r, 4<<10), 0)
				}
			})
		}
		mustRun(env)
		return float64(time.Since(start).Nanoseconds()) / float64(env.Events())
	})
}

// ---- dtype ----

func (d *drivers) dtypeLayer() {
	const block = 256 << 10
	src, dst := d.noise(block), make([]byte, block)
	n := d.pick(256, 8)
	reduce := func(t dtype.Type) func() float64 {
		return func() float64 {
			clear(dst)
			return block / perOp(n, func() {
				for k := 0; k < n; k++ {
					dtype.Reduce(dtype.Sum, t, dst, src)
				}
			})
		}
	}
	d.measure("dtype.reduce_f64_gbps", 15, reduce(dtype.Float64))
	d.measure("dtype.reduce_i64_gbps", 15, reduce(dtype.Int64))
}

// ---- tree and tune ----

func (d *drivers) treeLayer() {
	build := func(nodes, reps int) func() float64 {
		return func() float64 {
			return perOp(nodes*reps, func() {
				for k := 0; k < reps; k++ {
					tree.New(tree.Binomial, nodes, k%nodes)
				}
			})
		}
	}
	d.measure("tree.new_binomial_ns_per_node.n16", 15, build(16, d.pick(1<<12, 1<<6)))
	d.measure("tree.new_binomial_ns_per_node.n128k", 15, build(d.pick(128<<10, 1<<10), 1))

	hcfg := machine.HierColonySP(d.pick(4096, 64), 8, 4, 8, 8)
	ids := make([]int, hcfg.Nodes)
	for i := range ids {
		ids[i] = i
	}
	spans := hcfg.TierSpans()
	hreps := d.pick(16, 2)
	d.measure("tree.new_multilevel_ns_per_node", 15, func() float64 {
		return perOp(len(ids)*hreps, func() {
			for k := 0; k < hreps; k++ {
				tree.NewHier(tree.Multilevel, ids, k, spans)
			}
		})
	})

	entry := tune.Default().Topo("12x8/3/4")
	if entry == nil {
		panic("bench: topology 12x8/3/4 is not in the default tuning table")
	}
	lookups := d.pick(1<<18, 1<<12)
	ops := [...]string{"bcast", "reduce", "allreduce"}
	d.measure("tune.lookup_ns", 15, func() float64 {
		return perOp(lookups, func() {
			for k := 0; k < lookups; k++ {
				entry.Lookup(ops[k%len(ops)], 8<<(k%18))
			}
		})
	})
}

// ---- core: one SRM collective per protocol regime, on both engines ----

type coreRegime struct {
	name  string
	op    gridOp
	size  int
	alg   core.Alg
	calls int // back-to-back calls per sample, sized so a sample is ~10 ms
}

var coreRegimes = [...]coreRegime{
	{"bcast_small", opBcast, 4 << 10, core.AlgAuto, 16},
	{"bcast_pipe", opBcast, 16 << 10, core.AlgAuto, 8},
	{"bcast_large", opBcast, 512 << 10, core.AlgAuto, 1},
	{"reduce_pipe", opReduce, 64 << 10, core.AlgAuto, 4},
	{"allreduce_rd", opAllreduce, 8 << 10, core.AlgAuto, 8},
	{"allreduce_pipe", opAllreduce, 64 << 10, core.AlgAuto, 4},
	{"allreduce_ring", opAllreduce, 256 << 10, core.AlgRing, 1},
	{"allreduce_rhd", opAllreduce, 256 << 10, core.AlgRHD, 1},
	{"allreduce_dualroot", opAllreduce, 256 << 10, core.AlgDualRoot, 1},
	{"barrier", opBarrier, 0, core.AlgAuto, 32},
}

// coreRun builds a 4x16 machine, runs `calls` collectives of the regime
// on every rank through core's public methods and returns the machine and
// the environment after the run.
func (d *drivers) coreRun(rg coreRegime, tasks bool, calls int) (*machine.Machine, *sim.Env) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(4, 16))
	s := core.New(m, rma.NewDomain(m), core.Options{AllreduceAlg: rg.alg})
	for r := 0; r < m.P(); r++ {
		send, recv := d.coreSend.row(r, rg.size), d.coreRecv.row(r, rg.size)
		var rootRecv []byte
		if r == 0 {
			rootRecv = recv
		}
		if tasks {
			env.SpawnTask("rank", r, func(t *sim.Task) {
				loopT(calls, func(_ int, next func()) {
					switch rg.op {
					case opBcast:
						s.BcastT(t, r, recv, 0, next)
					case opReduce:
						s.ReduceT(t, r, send, rootRecv, dtype.Float64, dtype.Sum, 0, next)
					case opAllreduce:
						s.AllreduceT(t, r, send, recv, dtype.Float64, dtype.Sum, next)
					case opBarrier:
						s.BarrierT(t, r, next)
					}
				}, func() {})
			})
			continue
		}
		env.SpawnIndexed("rank", r, func(p *sim.Proc) {
			for k := 0; k < calls; k++ {
				switch rg.op {
				case opBcast:
					s.Bcast(p, r, recv, 0)
				case opReduce:
					s.Reduce(p, r, send, rootRecv, dtype.Float64, dtype.Sum, 0)
				case opAllreduce:
					s.Allreduce(p, r, send, recv, dtype.Float64, dtype.Sum)
				case opBarrier:
					s.Barrier(p, r)
				}
			}
		})
	}
	mustRun(env)
	return m, env
}

func (d *drivers) coreLayer() {
	for _, rg := range coreRegimes {
		calls := rg.calls
		if d.smoke {
			calls = 1
		}
		var events [2]uint64
		for ei, engine := range [...]string{"proc", "task"} {
			d.measure("core."+rg.name+"."+engine+"_ns_per_event", 15, func() float64 {
				start := time.Now()
				_, env := d.coreRun(rg, ei == 1, calls)
				events[ei] = env.Events()
				return float64(time.Since(start).Nanoseconds()) / float64(events[ei])
			})
		}
		// Exact, and equal across engines; a change means the schedule
		// changed. A mismatch is reported as a negative count.
		ev := float64(events[0])
		if events[0] != events[1] {
			ev = -1
		}
		d.set("core."+rg.name+".events", ev)
	}
}

// ---- scale: the rank ladder of the state-machine allreduce core ----

func (d *drivers) scaleLayer() {
	ladder := [...]struct {
		name           string
		nodes, samples int
	}{{"r1k", 128, 15}, {"r4k", 512, 9}, {"r16k", 2048, 5}, {"r64k", 8192, 3}}
	var proto float64
	for i, l := range ladder {
		nodes := d.pick(l.nodes, 4<<i)
		d.measure("scale.events_per_s."+l.name, l.samples, func() float64 {
			start := time.Now()
			res, err := scale.Run(scale.Config{Machine: machine.ColonySP(nodes, 8), Bytes: ladderBytes, Reps: 1, Engine: scale.Tasks})
			if err != nil {
				panic(err)
			}
			proto = res.ProtoBytesPerRank()
			return float64(res.Events) / time.Since(start).Seconds()
		})
	}
	d.set("scale.ladder_decay", d.out["scale.events_per_s.r1k"]/d.out["scale.events_per_s.r64k"])
	d.set("scale.proto_bytes_per_rank", proto)
}

// ---- srmcoll: the facade's own cost ----

func (d *drivers) srmcollLayer() {
	small := mustCluster(srmcoll.ColonySP(16, 16))
	d.measure("srmcoll.run_setup_us_per_rank", 15, func() float64 {
		start := time.Now()
		if _, err := small.Run(srmcoll.SRM, func(*srmcoll.Comm) {}); err != nil {
			panic(err)
		}
		return float64(time.Since(start).Microseconds()) / float64(small.Config().P())
	})
	big := mustCluster(srmcoll.ColonySP(d.pick(8192, 32), 8))
	big.SetEngine(srmcoll.EngineTasks)
	d.measure("srmcoll.runt_setup_us_per_rank", 5, func() float64 {
		start := time.Now()
		if _, err := big.RunT(srmcoll.SRM, func(_ *srmcoll.TComm, done func()) { done() }); err != nil {
			panic(err)
		}
		return float64(time.Since(start).Microseconds()) / float64(big.Config().P())
	})

	// The request path's own cost: 64 x (IAllreduce + Wait) of 8 bytes
	// against 64 blocking allreduces, per request.
	const reqs = 64
	cl := mustCluster(srmcoll.ColonySP(4, 4))
	ranks := cl.Config().P()
	bufs := newArena(2*ranks, 8)
	timeRun := func(fn func() error) float64 {
		start := time.Now()
		if err := fn(); err != nil {
			panic(err)
		}
		return float64(time.Since(start).Nanoseconds())
	}
	d.measure("srmcoll.ireq_proc_ns", 15, func() float64 {
		nb := timeRun(func() error {
			_, err := cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
				for k := 0; k < reqs; k++ {
					c.IAllreduce(bufs.row(2*c.Rank(), 8), bufs.row(2*c.Rank()+1, 8), srmcoll.Float64, srmcoll.Sum).Wait()
				}
			})
			return err
		})
		bl := timeRun(func() error {
			_, err := cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
				for k := 0; k < reqs; k++ {
					c.Allreduce(bufs.row(2*c.Rank(), 8), bufs.row(2*c.Rank()+1, 8), srmcoll.Float64, srmcoll.Sum)
				}
			})
			return err
		})
		return (nb - bl) / float64(reqs*ranks)
	})
	tcl := mustCluster(srmcoll.ColonySP(4, 4))
	tcl.SetEngine(srmcoll.EngineTasks)
	d.measure("srmcoll.ireq_task_ns", 15, func() float64 {
		nb := timeRun(func() error {
			_, err := tcl.RunT(srmcoll.SRM, func(tc *srmcoll.TComm, done func()) {
				send, recv := bufs.row(2*tc.Rank(), 8), bufs.row(2*tc.Rank()+1, 8)
				loopT(reqs, func(_ int, next func()) {
					tc.IAllreduce(send, recv, srmcoll.Float64, srmcoll.Sum, func(rq *srmcoll.TRequest) {
						rq.Wait(func(error) { next() })
					})
				}, done)
			})
			return err
		})
		bl := timeRun(func() error {
			_, err := tcl.RunT(srmcoll.SRM, func(tc *srmcoll.TComm, done func()) {
				send, recv := bufs.row(2*tc.Rank(), 8), bufs.row(2*tc.Rank()+1, 8)
				loopT(reqs, func(_ int, next func()) {
					tc.Allreduce(send, recv, srmcoll.Float64, srmcoll.Sum, func(error) { next() })
				}, done)
			})
			return err
		})
		return (nb - bl) / float64(reqs*ranks)
	})
}

// ---- trace: what span recording costs a run ----

func (d *drivers) traceLayer() {
	const size = 32 << 10
	calls := d.pick(4, 1)
	bufs := newArena(2*64, size)
	run := func(tracing bool) (float64, *srmcoll.Result) {
		cl := mustCluster(srmcoll.ColonySP(4, 16))
		cl.SetTracing(tracing)
		start := time.Now()
		res, err := cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
			for k := 0; k < calls; k++ {
				c.Allreduce(bufs.row(2*c.Rank(), size), bufs.row(2*c.Rank()+1, size), srmcoll.Float64, srmcoll.Sum)
			}
		})
		if err != nil {
			panic(err)
		}
		return time.Since(start).Seconds(), res
	}
	var spansPerEvent float64
	d.measure("trace.overhead_ratio", 15, func() float64 {
		off, _ := run(false)
		on, res := run(true)
		spansPerEvent = float64(len(res.Trace.Spans())) / float64(res.Events)
		return on / off
	})
	d.set("trace.spans_per_event", spansPerEvent)
}
