package core

import (
	"fmt"
	"reflect"
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
)

func TestExecIsTenCacheLines(t *testing.T) {
	// 192 bytes, three cache lines: 85 executors to a slab, where four
	// 144-byte ops inline made 968 bytes and 16, three 88-byte ops and two
	// frames made 640 and 25, three 80-byte ops inline made 512 and 32, and
	// int-wide frame indexes, call context and dataspec, a helper's done
	// event and a pad made 256 and 64.
	// The massive-rank allreduce holds one per rank for its whole call, and
	// most of those ranks are parked on the last operation of a step: the
	// queue is an opQueue of the SRM's, held only while operations are
	// pending. A whole number of cache lines, so that what resume and run
	// read on every visit is on one line of each executor in a slab. An op
	// of 80 bytes is what three of them in a queue leave room for; an SMP
	// stage's frame is not inline (subFrame).
	if got := reflect.TypeOf(op{}).Size(); got > 80 {
		t.Errorf("op is %d bytes; put a rare operand in opQueue.rare", got)
	}
	size := reflect.TypeOf(exec{}).Size()
	if size > 192 || size%64 != 0 {
		t.Errorf("exec is %d bytes; want a multiple of 64 no larger than 192", size)
	}
	if per := bufpool.ChunkBytes / size; per < 64 {
		t.Errorf("%d executors to a slab, want >= 64", per)
	}
	for _, name := range []string{"t", "s", "ep", "armed", "fired", "qh", "qn", "bits", "depth", "node", "oq"} {
		if f, _ := reflect.TypeOf(exec{}).FieldByName(name); f.Offset+f.Type.Size() > 64 {
			t.Errorf("exec.%s is past the first cache line, at %d", name, f.Offset)
		}
	}
}

// TestExecQueueFitsInline runs every step the bench regimes, the SMP broadcast
// variants and the allreduce families take over each kind of inter-node tree,
// from both forms of body. A step that queues more operations than opQueue.q
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

// TestParkedExecutorHoldsNoQueue runs rank_ladder's RunT body — a broadcast
// from a root that enters late, an allreduce and a barrier, every rank a task
// — over 4,096 ranks, and looks at every executor between events. No executor
// runs then, so a queue may be out only to one parked with operations of its
// step still to perform: one parked on its step's last operation, as most
// ranks of a large collective are, holds none. Every queue is back once the
// run is over.
func TestParkedExecutorHoldsNoQueue(t *testing.T) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(512, 8))
	s := New(m, rma.NewDomain(m), Options{})
	const n, root = 64, 1234
	P := m.P()
	send, bufs, recv := make([]byte, P*n), make([]byte, P*n), make([]byte, P*n)
	for r := range P {
		env.SpawnTask("rank", r, func(tk *sim.Task) {
			coll := func() {
				s.BcastT(tk, r, bufs[r*n:(r+1)*n], root, func() {
					s.AllreduceT(tk, r, send[r*n:(r+1)*n], recv[r*n:(r+1)*n], dtype.Float64, dtype.Sum, func() {
						s.BarrierT(tk, r, func() {})
					})
				})
			}
			if r == root {
				tk.SleepThen(3, coll)
			} else {
				coll()
			}
		})
	}
	events, samples, maxOut, maxLive := 0, 0, 0, 0
	sim.Observe(func(e *sim.Env, _ sim.Step, _ any) {
		if events++; e != env || events%256 != 0 {
			return
		}
		samples++
		live, mid := 0, 0
		s.execs.Each(func(x *exec) {
			if x.s == nil {
				return // idle
			}
			live++
			if x.qh < x.qn {
				mid++
			}
		})
		made, idle := s.queues.Count()
		if out := made - idle; out > mid {
			t.Fatalf("event %d: %d queues out, but only %d of %d executors are parked mid-queue", events, out, mid, live)
		} else {
			maxOut, maxLive = max(maxOut, out), max(maxLive, live)
		}
	})
	defer sim.Observe(nil)
	if err := env.Run(); err != nil || env.Live() != 0 {
		t.Fatalf("Run() = %v with %d tasks live", err, env.Live())
	}
	if made, idle := s.queues.Count(); made != idle {
		t.Errorf("%d of %d queues not back after the run", made-idle, made)
	}
	if samples < 100 {
		t.Errorf("%d samples of %d events, want at least 100", samples, events)
	}
	t.Logf("%d events, %d samples: at most %d queues out, at most %d executors live", events, samples, maxOut, maxLive)
}

// TestScaleRanksWaitWithoutExecutors runs the massive-rank allreduce over
// 4,096 ranks, 64 bytes each, warm, and counts what its ranks hold while they
// wait. A worker's contribution copy ends its step, so no worker waits with
// operations queued behind it, and a rank parked on a step's last operation
// keeps only its 24-byte scaleRank record: the executors drawn are about one
// a node (the masters fold at the same instants), not one a rank, and the
// queues fit a few slabs.
func TestScaleRanksWaitWithoutExecutors(t *testing.T) {
	if size := reflect.TypeFor[scaleRank]().Size(); size > 24 {
		t.Errorf("scaleRank is %d bytes, want at most 24", size)
	}
	const nodes, tpn, n = 512, 8, 64
	P := nodes * tpn
	run := func() (execs int, queueSlabs uint64) {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(nodes, tpn))
		s := New(m, rma.NewDomain(m), Options{})
		send, recv := make([]byte, P*n), make([]byte, P*n)
		before := bufpool.Slabs[opQueue]().Drawn
		s.ScaleAllreduce(1, send, recv, make([]sim.Time, P))
		if err := env.Run(); err != nil || env.Live() != 0 {
			t.Fatalf("Run() = %v with %d tasks live", err, env.Live())
		}
		queueSlabs = bufpool.Slabs[opQueue]().Drawn - before
		execs, idle := s.execs.Count()
		if idle != execs {
			t.Errorf("%d of %d executors not back after the run", execs-idle, execs)
		}
		s.Release()
		env.Release()
		return execs, queueSlabs
	}
	run() // warm the reserve
	execs, slabs := run()
	if limit := P/8 + 64; execs > limit {
		t.Errorf("%d executors drawn for %d ranks, want at most %d", execs, P, limit)
	}
	if slabs > 8 {
		t.Errorf("%d queue slabs drawn, want at most 8", slabs)
	}
	t.Logf("%d ranks: %d executors, %d queue slabs", P, execs, slabs)
}

// testCall is a rank's blocking call as the facade makes one: its task and
// buffers, and what runs once it has completed.
type testCall struct {
	t    *sim.Task
	a, c []byte
	next func()
}

func (c *testCall) Resume()                           { c.next() }
func (c *testCall) Args() (t *sim.Task, a, c2 []byte) { return c.t, c.a, c.c }

// TestFacadeRanksWaitWithoutExecutors runs rank_ladder's RunT body — a small
// broadcast from a root that enters late, an RD allreduce and a barrier — over
// 4,096 plain tasks, warm, each call's continuation a RankCall as the facade's.
// A rank that waits on the last operation of a step keeps a rankWait in place
// of its executor and its stage's frame, so the executors and frames drawn
// stay far below one a rank, and the queues, which a master waiting on a whole
// node's flags at once held, fit a slab. With the unwind stacks armed, as under
// fault tolerance, every rank keeps its executor, and the run reads the same.
func TestFacadeRanksWaitWithoutExecutors(t *testing.T) {
	if size := reflect.TypeFor[rankWait]().Size(); size > 64 {
		t.Errorf("rankWait is %d bytes, want at most 64", size)
	}
	const nodes, tpn, n, root = 512, 8, 64, 1234
	P := nodes * tpn
	type census struct {
		execs, subs int
		queueSlabs  uint64
	}
	type outcome struct {
		digest, events uint64
		fin            []sim.Time
		stats          string
	}
	run := func(armed bool) (census, outcome) {
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(nodes, tpn))
		s := New(m, rma.NewDomain(m), Options{})
		send, bufs, recv := make([]byte, P*n), make([]byte, P*n), make([]byte, P*n)
		for i := range send {
			send[i] = byte(i % 7)
		}
		copy(bufs[root*n:], "late root")
		fin, calls := make([]sim.Time, P), make([]testCall, P)
		w := s.World()
		before := bufpool.Slabs[opQueue]().Drawn
		for r := range P {
			env.SpawnTask("rank", r, func(tk *sim.Task) {
				tk.SetUnwindArmed(armed)
				row := func(b []byte) []byte { return b[r*n : (r+1)*n : (r+1)*n] }
				c := &calls[r]
				coll := func() {
					*c = testCall{t: tk, a: row(bufs), next: func() {
						*c = testCall{t: tk, a: row(send), c: row(recv), next: func() {
							*c = testCall{t: tk, next: func() { fin[r] = tk.Now() }}
							w.BarrierT(tk, r, c)
						}}
						w.AllreduceT(tk, r, c.a, c.c, dtype.Float64, dtype.Sum, c)
					}}
					w.BcastT(tk, r, c.a, root, c)
				}
				if r == root {
					tk.SleepThen(3, coll)
				} else {
					coll()
				}
			})
		}
		if err := env.Run(); err != nil || env.Live() != 0 {
			t.Fatalf("Run() = %v with %d tasks live", err, env.Live())
		}
		var cs census
		cs.queueSlabs = bufpool.Slabs[opQueue]().Drawn - before
		cs.execs, _ = s.execs.Count()
		cs.subs, _ = s.subs.Count()
		for name, f := range map[string]func() (int, int){"executors": s.execs.Count, "frames": s.subs.Count, "queues": s.queues.Count} {
			if made, idle := f(); made != idle {
				t.Errorf("armed %v: %d of %d %s not back after the run", armed, made-idle, made, name)
			}
		}
		for r := range P {
			if string(bufs[r*n:r*n+9]) != "late root" {
				t.Fatalf("armed %v: rank %d received %q", armed, r, bufs[r*n:r*n+9])
			}
		}
		out := outcome{env.Digest(), env.Events(), fin, fmt.Sprintf("%+v", *m.Stats)}
		s.Release()
		env.Release()
		return cs, out
	}
	run(false) // warm the reserve
	got, want := run(false)
	if limit := P / 4; got.execs > limit {
		t.Errorf("%d executors drawn for %d ranks, want at most %d", got.execs, P, limit)
	}
	if limit := P / 8; got.subs > limit {
		t.Errorf("%d stage frames drawn for %d ranks, want at most %d", got.subs, P, limit)
	}
	if got.queueSlabs > 1 {
		t.Errorf("%d queue slabs drawn, want at most 1", got.queueSlabs)
	}
	t.Logf("%d ranks: %d executors, %d stage frames, %d queue slabs", P, got.execs, got.subs, got.queueSlabs)

	armed, same := run(true)
	if armed.execs < P {
		t.Errorf("with armed unwinds %d executors drawn for %d ranks, want one a rank", armed.execs, P)
	}
	if !reflect.DeepEqual(same, want) {
		t.Errorf("with armed unwinds the run reads %d events, digest %x, stats %s; without, %d, %x, %s",
			same.events, same.digest, same.stats, want.events, want.digest, want.stats)
	}
}
