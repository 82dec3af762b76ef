package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEnvStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5)
		p.Sleep(2.5)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7.5 {
		t.Fatalf("time after sleeps = %v, want 7.5", at)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-3)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCallbackOrdering(t *testing.T) {
	e := NewEnv()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("callback order = %v", got)
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEnv()
	var got []string
	for _, n := range []string{"a", "b", "c", "d"} {
		n := n
		e.At(7, func() { got = append(got, n) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[a b c d]" {
		t.Fatalf("same-time order = %v, want schedule order", got)
	}
}

func TestAtInThePastClampsToNow(t *testing.T) {
	e := NewEnv()
	fired := Time(-1)
	e.At(10, func() {
		e.At(2, func() { fired = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("past callback fired at %v, want clamped to 10", fired)
	}
}

func TestSpawnRunsAtCurrentTime(t *testing.T) {
	e := NewEnv()
	var start Time
	e.At(4, func() {
		e.Spawn("late", func(p *Proc) { start = p.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 4 {
		t.Fatalf("spawned proc started at %v, want 4", start)
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Wait(ev)
			woke = append(woke, p.Now())
		})
	}
	e.At(9, ev.Trigger)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 9 {
			t.Fatalf("waiter woke at %v, want 9", w)
		}
	}
}

func TestWaitOnDoneEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger()
	if !ev.Done() {
		t.Fatal("event not done after Trigger")
	}
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1)
		p.Wait(ev)
		if p.Now() != 1 {
			t.Errorf("wait on done event advanced time to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleTriggerIsNoop(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Trigger()
	ev.Trigger() // must not panic
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTriggerAfter(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var at Time
	e.Spawn("p", func(p *Proc) {
		ev.TriggerAfter(12)
		p.Wait(ev)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 12 {
		t.Fatalf("woke at %v, want 12", at)
	}
}

func TestCondBroadcastRepeats(t *testing.T) {
	e := NewEnv()
	c := e.NewCond()
	count := 0
	e.Spawn("w", func(p *Proc) {
		c.Wait(p)
		count++
		c.Wait(p)
		count++
	})
	e.At(1, c.Broadcast)
	e.At(2, c.Broadcast)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("woke %d times, want 2", count)
	}
}

func TestCondWaitUntil(t *testing.T) {
	e := NewEnv()
	c := e.NewCond()
	x := 0
	var at Time
	e.Spawn("w", func(p *Proc) {
		c.WaitUntil(p, func() bool { return x >= 3 })
		at = p.Now()
	})
	for i := 1; i <= 5; i++ {
		i := i
		e.At(Time(i), func() { x = i; c.Broadcast() })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Fatalf("predicate satisfied at %v, want 3", at)
	}
}

func TestCondWaitUntilImmediate(t *testing.T) {
	e := NewEnv()
	c := e.NewCond()
	e.Spawn("w", func(p *Proc) {
		c.WaitUntil(p, func() bool { return true })
		if p.Now() != 0 {
			t.Errorf("immediate WaitUntil advanced time to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	e.Spawn("stuck-b", func(p *Proc) { p.Wait(ev) })
	e.Spawn("stuck-a", func(p *Proc) { p.Wait(ev) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 2 || de.Blocked[0] != "stuck-a" || de.Blocked[1] != "stuck-b" {
		t.Fatalf("blocked = %v, want sorted [stuck-a stuck-b]", de.Blocked)
	}
}

func TestNoDeadlockWhenAllFinish(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	e.Spawn("w", func(p *Proc) { p.Wait(ev) })
	e.Spawn("t", func(p *Proc) { p.Sleep(1); ev.Trigger() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil", err)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv()
	var fired []Time
	e.At(1, func() { fired = append(fired, 1) })
	e.At(10, func() { fired = append(fired, 10) })
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || e.Now() != 1 {
		t.Fatalf("fired=%v now=%v; want only t=1 fired", fired, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("after full Run fired=%v", fired)
	}
}

func TestYieldLetsSameTimeWorkRun(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) { order = append(order, "b") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a1 b a2]" {
		t.Fatalf("order = %v, want [a1 b a2]", order)
	}
}

// TestDeterminism runs a randomized workload twice and checks the observable
// schedules match exactly.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv()
		var log []string
		c := e.NewCond()
		fired := 0
		for i := 0; i < 20; i++ {
			i := i
			d := Time(rng.Intn(50))
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				if i%2 == 1 {
					// Wait for a share of the others to have broadcast.
					c.WaitUntil(p, func() bool { return fired > i/2 })
				} else {
					p.Sleep(d)
					fired++
					c.Broadcast()
				}
				log = append(log, fmt.Sprintf("%s@%.1f", p.Name(), p.Now()))
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(42), run(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic schedules:\n%v\n%v", a, b)
	}
}

// Property: for any set of sleep durations, processes finish in sorted order
// of duration (FIFO at ties by spawn order).
func TestPropSleepOrdering(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		e := NewEnv()
		var got []Time
		for i, d := range durs {
			d := Time(d)
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				got = append(got, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- fault-injection and diagnostics additions ---

func TestSpawnPanicBecomesCrashError(t *testing.T) {
	e := NewEnv()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(3)
		panic("boom")
	})
	e.Spawn("good", func(p *Proc) { p.Sleep(1) })
	err := e.Run()
	ce, ok := err.(*CrashError)
	if !ok {
		t.Fatalf("Run() = %v, want *CrashError", err)
	}
	if len(ce.Failures) != 1 || ce.Failures[0].Proc != "bad" || ce.Failures[0].Time != 3 {
		t.Fatalf("failures = %+v", ce.Failures)
	}
	if ce.Failures[0].Cause != "boom" {
		t.Fatalf("cause = %v", ce.Failures[0].Cause)
	}
	if !strings.Contains(ce.Error(), "bad at t=3.000") {
		t.Fatalf("message = %q", ce.Error())
	}
}

func TestKillSleepingProcess(t *testing.T) {
	e := NewEnv()
	var reached bool
	p := e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		reached = true
	})
	e.At(5, func() { e.Kill(&p.Task, "injected") })
	err := e.Run()
	ce, ok := err.(*CrashError)
	if !ok {
		t.Fatalf("Run() = %v, want *CrashError", err)
	}
	if reached {
		t.Fatal("killed process ran past its sleep")
	}
	cr, ok := ce.Failures[0].Cause.(Crashed)
	if !ok || cr.Reason != "injected" {
		t.Fatalf("cause = %#v", ce.Failures[0].Cause)
	}
	// The crash is delivered at the queued wake-up (t=100), not at Kill time.
	if ce.Failures[0].Time != 100 {
		t.Fatalf("crash time = %v, want 100", ce.Failures[0].Time)
	}
}

func TestKillParkedProcessCrashesImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	p := e.Spawn("waiter", func(p *Proc) { p.Wait(ev) })
	e.At(7, func() { e.Kill(&p.Task, "crash now") })
	err := e.Run()
	ce, ok := err.(*CrashError)
	if !ok {
		t.Fatalf("Run() = %v, want *CrashError", err)
	}
	if ce.Failures[0].Time != 7 {
		t.Fatalf("crash time = %v, want 7 (parked kill delivers immediately)", ce.Failures[0].Time)
	}
	// The kill took the process off ev's waiter list: a trigger wakes nobody.
	ev.Trigger()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", e.Live())
	}
}

func TestKillFinishedProcessIsNoop(t *testing.T) {
	e := NewEnv()
	p := e.Spawn("quick", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Kill(&p.Task, "too late")
	if err := e.Run(); err != nil {
		t.Fatalf("Run after no-op kill = %v", err)
	}
}

func TestSetSlowdownStretchesSleep(t *testing.T) {
	e := NewEnv()
	var done Time
	p := e.Spawn("stalled", func(p *Proc) {
		p.Sleep(10) // normal
		p.Sleep(10) // stretched 3x
		done = p.Now()
	})
	e.At(10, func() { e.SetSlowdown(&p.Task, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 40 {
		t.Fatalf("finished at %v, want 40 (10 + 3*10)", done)
	}
	// Clearing the stall restores normal speed.
	e2 := NewEnv()
	var done2 Time
	p2 := e2.Spawn("recovered", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(10)
		done2 = p.Now()
	})
	e2.At(0, func() { e2.SetSlowdown(&p2.Task, 5) })
	e2.At(50, func() { e2.SetSlowdown(&p2.Task, 1) })
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if done2 != 60 {
		t.Fatalf("finished at %v, want 60 (5*10 + 10)", done2)
	}
}

// wantCredit describes a wait to stall reports.
type wantCredit struct{}

func (wantCredit) DescribeWait(want int) string {
	return fmt.Sprintf("flow-ctl: want %d credits", want)
}

func TestBlockedSnapshot(t *testing.T) {
	e := NewEnv()
	cond := e.NewCond().Named("flow-ctl")
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2)
		cond.WaitOn(p, wantCredit{}, 3)
	})
	e.Spawn("a", func(p *Proc) { p.Wait(e.NewEvent().Named("never")) })
	if err := e.RunUntil(10); err != nil {
		// Both waits are hopeless, so the early stop may legitimately
		// report the deadlock; what matters here is the snapshot below.
		if _, ok := err.(*DeadlockError); !ok {
			t.Fatal(err)
		}
	}
	got := e.Blocked()
	if len(got) != 2 {
		t.Fatalf("Blocked() = %+v, want 2 entries", got)
	}
	if got[0].Name != "a" || got[0].Resource != "never" || got[0].Waiting != "never" {
		t.Fatalf("entry 0 = %+v", got[0])
	}
	if got[1].Name != "b" || got[1].Resource != "flow-ctl" || got[1].Waiting != "flow-ctl: want 3 credits" {
		t.Fatalf("entry 1 = %+v", got[1])
	}
	if got[0].Since != 0 || got[1].Since != 2 {
		t.Fatalf("Since = %v, %v; want 0, 2", got[0].Since, got[1].Since)
	}
}

func TestDeadlockErrorCarriesWaitContext(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent().Named("missing-ack")
	e.Spawn("w1", func(p *Proc) { p.Wait(ev) })
	e.Spawn("w2", func(p *Proc) { p.Wait(ev) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(de.Procs) != 2 || de.Procs[0].Name != "w1" || de.Procs[0].Waiting != "missing-ack" {
		t.Fatalf("Procs = %+v", de.Procs)
	}
	if got := de.WaitGraph["missing-ack"]; len(got) != 2 {
		t.Fatalf("WaitGraph = %+v", de.WaitGraph)
	}
	if !strings.Contains(de.Error(), "w1: waiting on missing-ack") {
		t.Fatalf("message = %q", de.Error())
	}
}

func TestRunUntilNilWhenCallbacksRemain(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	e.Spawn("w", func(p *Proc) { p.Wait(ev) })
	e.At(50, ev.Trigger)
	if err := e.RunUntil(10); err != nil {
		t.Fatalf("RunUntil(10) = %v, want nil (pending callback can wake w)", err)
	}
	if len(e.Blocked()) != 1 {
		t.Fatal("w should be parked at the early stop")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("resumed Run() = %v", err)
	}
}

func TestRunUntilDetectsUnwakeable(t *testing.T) {
	e := NewEnv()
	e.Spawn("stuck", func(p *Proc) { p.Wait(e.NewEvent().Named("orphan")) })
	done := e.Spawn("quick", func(p *Proc) {})
	e.At(2, func() {}) // keep the queue non-empty past the first early stop
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	// Fabricate the race RunUntil must see through: a wake-up queued beyond
	// the limit for a process that has already finished. With only that in
	// the queue, nothing can ever wake "stuck".
	e.push(100, nil, &done.Task)
	err := e.RunUntil(5)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("RunUntil(5) = %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("Blocked = %v", de.Blocked)
	}
}

func TestRunUntilCrashTakesPrecedence(t *testing.T) {
	e := NewEnv()
	e.Spawn("w", func(p *Proc) { p.Wait(e.NewEvent()) })
	e.Spawn("bad", func(p *Proc) { panic("first cause") })
	err := e.RunUntil(10)
	if _, ok := err.(*CrashError); !ok {
		t.Fatalf("RunUntil = %v, want *CrashError over deadlock", err)
	}
}
