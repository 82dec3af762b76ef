package sim

import (
	"runtime"
	"testing"
)

// noNewGoroutines runs f and reports goroutines it left behind. A stopped
// coroutine's goroutine is destroyed inside stop(), so the count is exact the
// moment Run returns; "<=" tolerates a straggler of an earlier test exiting.
func noNewGoroutines(t *testing.T, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after", before, after)
	}
}

func TestCoroutineReusedWhileStaleWakeIsQueued(t *testing.T) {
	noNewGoroutines(t, func() {
		e := NewEnv()
		var first, second *coro
		var woke Time
		a := e.Spawn("a", func(p *Proc) { first = p.co })
		e.At(1, func() {
			e.Spawn("b", func(p *Proc) {
				second = p.co
				p.Sleep(10)
				woke = p.Now()
			})
		})
		// A wake-up of a that fires at t=5, when a is long finished and the
		// coroutine it ran on is suspended in the middle of b's Sleep.
		e.push(5, nil, &a.Task)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if first == nil || second != first {
			t.Errorf("b ran on coroutine %p, a on %p: want the same one", second, first)
		}
		if woke != 11 {
			t.Errorf("b woke at t=%v, want 11 (the stale wake-up of a must not resume it)", woke)
		}
		if !a.Done() || a.co != nil || len(e.idle) != 0 {
			t.Errorf("after Run: a done=%v co=%p, %d idle coroutines", a.Done(), a.co, len(e.idle))
		}
	})
}

func TestCoroutinePoolServesHelpersInTurn(t *testing.T) {
	// One long-lived process spawning a helper at a time, as a request stream
	// does: every helper after the first runs on the first one's coroutine.
	noNewGoroutines(t, func() {
		e := NewEnv()
		seen := map[*coro]int{}
		e.Spawn("main", func(p *Proc) {
			for i := 0; i < 20; i++ {
				done := e.NewEvent()
				e.SpawnIndexed("helper", i, func(h *Proc) {
					seen[h.co]++
					h.Sleep(1)
					done.Trigger()
				})
				p.Wait(done)
				p.Yield() // the helper returns (and idles its coroutine) after Trigger
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 {
			t.Errorf("20 sequential helpers ran on %d coroutines, want 1", len(seen))
		}
	})
}

func TestPanickingBodyLeavesCoroutineReusable(t *testing.T) {
	noNewGoroutines(t, func() {
		e := NewEnv()
		var first, second *coro
		var hooked, finished int
		e.OnFailure = func(*Task, ProcFailure) { hooked++ }
		e.Spawn("bad", func(p *Proc) {
			first = p.co
			p.Sleep(1)
			panic("boom")
		})
		e.At(2, func() {
			e.Spawn("next", func(p *Proc) {
				second = p.co
				p.Sleep(1)
				finished++
			})
		})
		err := e.Run()
		ce, ok := err.(*CrashError)
		if !ok || len(ce.Failures) != 1 || ce.Failures[0].Proc != "bad" || ce.Failures[0].Cause != "boom" {
			t.Fatalf("Run() = %v, want one failure of bad", err)
		}
		if hooked != 1 {
			t.Errorf("OnFailure ran %d times, want 1", hooked)
		}
		if second != first || finished != 1 {
			t.Errorf("next ran on %p (bad on %p) and finished %d times: want the same coroutine, once", second, first, finished)
		}
		if e.Live() != 0 {
			t.Errorf("Live() = %d", e.Live())
		}
	})
}

// A Kill is a crash at the process's next resume, an Interrupt a panic it may
// recover from — whichever state the process is in — and either way the
// coroutine the body ran on serves the next process. (The park points inside
// the primitives of the layers above, where protocol state has to be restored
// on the way out, are covered where they can be reached: internal/rma's
// TestKillAndInterruptAtEveryParkPoint, internal/core's
// TestKillAndInterruptInsideCollective.)
func TestKillAndInterruptInEveryState(t *testing.T) {
	type outcome struct {
		started   bool
		recovered any
		at        Time
	}
	body := func(o *outcome, wait func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			o.started = true
			defer func() {
				if r := recover(); r != nil {
					if _, crash := r.(Crashed); crash {
						panic(r) // a kill is not survivable
					}
					o.recovered, o.at = r, p.Now()
				}
			}()
			wait(p)
		}
	}
	sleep := func(p *Proc) { p.Sleep(100) }
	states := []struct {
		name   string
		wait   func(e *Env) func(p *Proc)
		when   Time // when the kill or interrupt is issued; < 0: before Run
		killAt Time // when the crash lands
		intrAt Time // when the interrupt lands
	}{
		// Never started: the kill lands at the first wake-up, before the body;
		// the interrupt at the first resume after it, the end of the sleep.
		{"never-started", func(*Env) func(*Proc) { return sleep }, -1, 0, 100},
		{"sleeping", func(*Env) func(*Proc) { return sleep }, 5, 100, 100},
		{"parked", func(e *Env) func(*Proc) {
			c := e.NewCond()
			return func(p *Proc) { c.Wait(p) }
		}, 5, 5, 5},
		{"parked-on-event", func(e *Env) func(*Proc) {
			ev := e.NewEvent()
			return func(p *Proc) { p.Wait(ev) }
		}, 5, 5, 5},
		// Woken by a broadcast at t=5 whose resume is still queued when the
		// kill or interrupt is issued at the same instant: no longer parked.
		{"woken", func(e *Env) func(*Proc) {
			c := e.NewCond()
			e.At(5, c.Broadcast)
			return func(p *Proc) { c.WaitUntil(p, func() bool { return false }) }
		}, 5, 5, 5},
	}
	for _, st := range states {
		for _, kill := range []bool{true, false} {
			noNewGoroutines(t, func() {
				e := NewEnv()
				var o outcome
				var ran, reused *coro
				wait := st.wait(e)
				p := e.Spawn("victim", body(&o, func(p *Proc) {
					ran = p.co
					wait(p)
				}))
				e.At(150, func() { e.Spawn("next", func(p *Proc) { reused = p.co }) })
				deliver := func() {
					if kill {
						e.Kill(&p.Task, "injected")
					} else {
						e.Interrupt(&p.Task, "revoked")
					}
				}
				if st.when < 0 {
					deliver()
				} else {
					e.At(st.when, deliver)
				}
				err := e.Run()
				if !p.Done() || p.parked || e.Live() != 0 || len(e.Blocked()) != 0 {
					t.Errorf("%s kill=%v: done=%v parked=%v live=%d", st.name, kill, p.Done(), p.parked, e.Live())
				}
				if reused == nil || ran != nil && reused != ran {
					t.Errorf("%s kill=%v: the next process ran on coroutine %p, the victim on %p", st.name, kill, reused, ran)
				}
				if !kill {
					if err != nil || o.recovered != "revoked" || o.at != st.intrAt {
						t.Errorf("%s interrupt: err=%v, recovered %v at t=%v, want \"revoked\" at %v",
							st.name, err, o.recovered, o.at, st.intrAt)
					}
					return
				}
				ce, ok := err.(*CrashError)
				if !ok || len(ce.Failures) != 1 || ce.Failures[0].Cause != (Crashed{Reason: "injected"}) || ce.Failures[0].Time != st.killAt {
					t.Errorf("%s kill: Run() = %v, want one injected crash at t=%v", st.name, err, st.killAt)
				}
				if o.started != (st.when >= 0) {
					t.Errorf("%s kill: body started = %v", st.name, o.started)
				}
			})
		}
	}
}

func TestDeadlockedProcKeepsItsGoroutineIdleCoroutinesDoNot(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	for i := 0; i < 8; i++ {
		e.SpawnIndexed("quick", i, func(p *Proc) { p.Sleep(1) })
	}
	e.Spawn("stuck", func(p *Proc) { p.Wait(e.NewEvent()) })
	if _, ok := e.Run().(*DeadlockError); !ok {
		t.Fatal("want a deadlock")
	}
	if after := runtime.NumGoroutine(); after != before+1 {
		t.Errorf("%d goroutines before, %d after a run that left one process parked: want one more", before, after)
	}
}

func TestEarlyStopReleasesIdleCoroutines(t *testing.T) {
	noNewGoroutines(t, func() {
		e := NewEnv()
		for i := 0; i < 8; i++ {
			e.SpawnIndexed("quick", i, func(p *Proc) { p.Sleep(1) })
		}
		var late *Proc
		e.At(20, func() { late = e.Spawn("late", func(p *Proc) { p.Sleep(1) }) })
		base := runtime.NumGoroutine()
		if err := e.RunUntil(10); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != base || len(e.idle) != 0 {
			t.Errorf("RunUntil(10) returned holding %d goroutines and %d idle coroutines", n-base, len(e.idle))
		}
		if err := e.Run(); err != nil || late == nil || !late.Done() {
			t.Errorf("resumed Run() = %v, late = %v", err, late)
		}
	})
}

// runtime.Goexit in a body (t.Fatal from a rank function) finishes the process
// and ends the goroutine driving the simulation, as proc_coro.go documents.
func TestCoroutineGoexitEndsTheDrivingGoroutine(t *testing.T) {
	noNewGoroutines(t, func() {
		e := NewEnv()
		var deferred, returned bool
		e.Spawn("ok", func(p *Proc) { p.Sleep(0.5) }) // idles a second coroutine before the Goexit
		quitter := e.Spawn("quitter", func(p *Proc) {
			defer func() { deferred = true }()
			p.Sleep(1)
			runtime.Goexit()
		})
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			e.Run()
			returned = true
		}()
		<-exited
		if returned {
			t.Error("Run returned; want the Goexit re-raised on its goroutine")
		}
		if !deferred || !quitter.Done() || e.Live() != 0 || len(e.Failures()) != 0 {
			t.Errorf("deferred=%v done=%v live=%d failures=%v", deferred, quitter.Done(), e.Live(), e.Failures())
		}
		if len(e.idle) != 0 {
			t.Errorf("%d idle coroutines survived the unwinding RunUntil", len(e.idle))
		}
	})
}

func TestProcRegistrySweepsFinished(t *testing.T) {
	e := NewEnv()
	stuck := e.Spawn("stuck", func(p *Proc) { p.Wait(e.NewEvent().Named("never")) })
	e.Spawn("main", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			e.SpawnIndexed("h", i, func(h *Proc) {})
			p.Sleep(1)
		}
	})
	de, ok := e.Run().(*DeadlockError)
	if !ok || len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("Run() = %v, want a deadlock of stuck alone", de)
	}
	if n := len(e.tasks); n > 16 {
		t.Errorf("registry holds %d processes after 1000 finished helpers", n)
	}
	if !stuck.parked {
		t.Error("stuck lost its parked flag")
	}
}
