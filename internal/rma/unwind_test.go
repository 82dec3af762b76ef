package rma

import (
	"runtime"
	"testing"

	"srmcoll/internal/machine"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// A process killed or interrupted inside a blocking primitive leaves the
// protocol state the primitive was holding as a return would have. The blocking
// forms used to see to that with defers on the process's stack; they are shims
// now, the state is held by steps of the process's Task, and what restores it
// is the Task's unwind stack, run before the failure is raised in the body.
// Each park point below is hit both ways, sleeping or parked as it comes.
func TestKillAndInterruptAtEveryParkPoint(t *testing.T) {
	type world struct {
		env    *sim.Env
		m      *machine.Machine
		d      *Domain
		landed *Counter // bumped at rank 1 by whatever the victim manages to put
	}
	points := []struct {
		name  string
		block func(w *world, p *sim.Proc) // never returns normally
		setup func(w *world)              // optional: before the run
		hitAt sim.Time                    // when the kill or interrupt is issued
		at    sim.Time                    // when it lands
		check func(t *testing.T, w *world)
	}{
		{
			// Parked in the spin: a phantom spinner would starve the node's
			// deliveries for good, and the wait's span would never close.
			name: "Flag.WaitGE",
			block: func(w *world, p *sim.Proc) {
				shm.NewFlag(w.m, 0).WaitGE(p, 1)
			},
			hitAt: 5, at: 5,
			check: func(t *testing.T, w *world) {
				if w.m.SpinPenalty(0) != 0 {
					t.Error("the node still counts a spinner")
				}
				for _, sp := range w.env.Trace.Spans() {
					if sp.Name == "wait:flag" && sp.End != 5 {
						t.Errorf("span %+v not closed at the hit", sp)
					}
				}
			},
		},
		{
			// Asleep paying the receive overhead of the first of two deferred
			// deliveries, before the wait proper has begun.
			name: "Waitcntr/draining",
			setup: func(w *world) {
				w.d.Endpoint(0).SetInterrupts(false)
				w.env.Spawn("sender", func(p *sim.Proc) {
					ep := w.d.Endpoint(1)
					ep.PutZero(p, w.d.Endpoint(0), w.d.NewCounter(0))
					ep.PutZero(p, w.d.Endpoint(0), w.d.NewCounter(0))
				})
			},
			block: func(w *world, p *sim.Proc) {
				p.Sleep(100)
				w.d.Endpoint(0).Waitcntr(p, w.d.NewCounter(0), 1)
			},
			hitAt: 105, at: 110,
			check: func(t *testing.T, w *world) {
				if ep := w.d.Endpoint(0); ep.inCall || len(ep.pending) != 1 {
					t.Errorf("inCall=%v with %d deliveries pending, want false and the second one", ep.inCall, len(ep.pending))
				}
			},
		},
		{
			// Parked inside the RMA call: a stuck inCall would make every
			// later delivery to a survivor look like a poll.
			name: "Waitcntr/parked",
			block: func(w *world, p *sim.Proc) {
				w.d.Endpoint(0).Waitcntr(p, w.d.NewCounter(0), 1)
			},
			hitAt: 5, at: 5,
			check: func(t *testing.T, w *world) {
				if w.d.Endpoint(0).inCall {
					t.Error("the endpoint is still inside an RMA call")
				}
			},
		},
		{
			name: "Machine.Memcpy",
			block: func(w *world, p *sim.Proc) {
				w.m.Memcpy(p, 0, make([]byte, 1<<20), make([]byte, 1<<20))
			},
			hitAt: 5, at: 0.4 + (1<<20)*0.0020, // asleep for the copy time
			check: func(t *testing.T, w *world) {
				if w.m.Stats.ShmCopies != 0 {
					t.Error("the abandoned copy was counted")
				}
			},
		},
		{
			// Asleep paying the send overhead: the put is never injected.
			name: "Endpoint.Put",
			block: func(w *world, p *sim.Proc) {
				w.d.Endpoint(0).Put(p, w.d.Endpoint(1), nil, nil, nil, w.landed, nil)
				t.Error("the put returned")
			},
			hitAt: 5, at: 10,
			check: func(t *testing.T, w *world) {
				if w.landed.Value() != 0 {
					t.Error("the abandoned put landed")
				}
			},
		},
	}
	for _, pt := range points {
		for _, kill := range []bool{true, false} {
			name := pt.name + map[bool]string{true: "/kill", false: "/interrupt"}[kill]
			goroutines := runtime.NumGoroutine()
			cfg := machine.ColonySP(2, 1)
			cfg.SpinYield, cfg.SendOverhead, cfg.RecvOverhead = false, 10, 10
			w := &world{env: sim.NewEnv()}
			w.env.Trace = trace.New(w.env.Now)
			w.m = machine.New(w.env, cfg)
			w.d = NewDomain(w.m)
			w.landed = w.d.NewCounter(0)
			if pt.setup != nil {
				pt.setup(w)
			}
			var deferred int
			var recovered any
			var at, after sim.Time
			victim := w.env.Spawn("victim", func(p *sim.Proc) {
				defer func() { deferred++ }()
				func() {
					defer func() {
						r := recover()
						if _, crash := r.(sim.Crashed); crash {
							panic(r) // a kill is not survivable
						}
						recovered, at = r, p.Now()
					}()
					pt.block(w, p)
				}()
				p.Sleep(1) // survived: it blocks again like any other process
				after = p.Now()
			})
			victim.SetTrack(0)
			w.env.At(pt.hitAt, func() {
				if kill {
					w.env.Kill(&victim.Task, "injected")
				} else {
					w.env.Interrupt(&victim.Task, "revoked")
				}
			})
			// The coroutine the victim ran on serves the next process.
			var next *sim.Proc
			w.env.At(pt.at+50, func() { next = w.env.Spawn("next", func(p *sim.Proc) { p.Sleep(1) }) })
			err := w.env.Run()
			if kill {
				ce, ok := err.(*sim.CrashError)
				if !ok || len(ce.Failures) != 1 || ce.Failures[0].Cause != (sim.Crashed{Reason: "injected"}) || ce.Failures[0].Time != pt.at {
					t.Errorf("%s: Run() = %v, want one injected crash at t=%v", name, err, pt.at)
				}
			} else if err != nil || recovered != "revoked" || at != pt.at || after != pt.at+1 {
				t.Errorf("%s: err=%v, recovered %v at t=%v and went on to t=%v, want \"revoked\" at %v", name, err, recovered, at, after, pt.at)
			}
			if deferred != 1 || !victim.Done() || !next.Done() || w.env.Live() != 0 || len(w.env.Blocked()) != 0 {
				t.Errorf("%s: body defers ran %d times, victim done=%v, next done=%v, live=%d, blocked=%v",
					name, deferred, victim.Done(), next.Done(), w.env.Live(), w.env.Blocked())
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%s: %d goroutines before, %d after", name, goroutines, n)
			}
			pt.check(t, w)
		}
	}
}
