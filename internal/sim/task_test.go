package sim

import (
	"errors"
	"fmt"
	"testing"
)

// Engine behavior of the Task state machines: stepping, suspension,
// completion inference, failure recovery, and parity with Proc semantics.

func TestTaskSleepChainAdvancesTime(t *testing.T) {
	e := NewEnv()
	var times []Time
	e.SpawnTask("t", -1, func(tk *Task) {
		times = append(times, tk.Now())
		tk.SleepThen(5, func() {
			times = append(times, tk.Now())
			tk.SleepThen(2.5, func() {
				times = append(times, tk.Now())
			})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(times) != "[0 5 7.5]" {
		t.Errorf("step times = %v, want [0 5 7.5]", times)
	}
	if e.Live() != 0 {
		t.Errorf("Live() = %d after the task fell off its last step", e.Live())
	}
}

func TestTaskMatchesProcTiming(t *testing.T) {
	// The same schedule of sleeps and event waits must finish at the same
	// virtual time under both engines.
	run := func(useTasks bool) Time {
		e := NewEnv()
		ev := e.NewEvent()
		var end Time
		if useTasks {
			e.SpawnTask("a", -1, func(tk *Task) {
				tk.SleepThen(3, func() { ev.Trigger() })
			})
			e.SpawnTask("b", -1, func(tk *Task) {
				ev.WaitT(tk, func() {
					tk.SleepThen(4, func() { end = tk.Now() })
				})
			})
		} else {
			e.Spawn("a", func(p *Proc) {
				p.Sleep(3)
				ev.Trigger()
			})
			e.Spawn("b", func(p *Proc) {
				p.Wait(ev)
				p.Sleep(4)
				end = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if pt, tt := run(false), run(true); pt != tt {
		t.Errorf("proc run ends at %v, task run at %v", pt, tt)
	}
}

func TestTaskWaitUntilT(t *testing.T) {
	e := NewEnv()
	c := e.NewCond()
	val := 0
	var seen int
	e.SpawnTask("w", -1, func(tk *Task) {
		waitUntilT(c, tk, -1, func() bool { return val >= 3 }, func() {
			seen = val
		})
	})
	for i := 1; i <= 4; i++ {
		v := i
		e.At(Time(i), func() { val = v; c.Broadcast() })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Errorf("continuation saw val=%d, want 3 (first satisfying broadcast)", seen)
	}
}

func TestTaskWaitUntilTImmediate(t *testing.T) {
	// A predicate that already holds must run the continuation within the
	// same step: no virtual time passes and no park happens.
	e := NewEnv()
	c := e.NewCond()
	ran := false
	e.SpawnTask("w", -1, func(tk *Task) {
		waitUntilT(c, tk, -1, func() bool { return true }, func() { ran = true })
		if !ran {
			t.Error("continuation deferred past the current step")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskDeadlockReported(t *testing.T) {
	e := NewEnv()
	c := e.NewCond().Named("stuck-flag")
	e.SpawnTask("rank", 12, func(tk *Task) {
		c.WaitT(tk, func() {})
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if fmt.Sprint(de.Blocked) != "[rank12]" {
		t.Errorf("blocked = %v, want [rank12]", de.Blocked)
	}
	if de.WaitGraph["stuck-flag"] == nil {
		t.Errorf("wait graph %v missing stuck-flag", de.WaitGraph)
	}
}

func TestTaskPanicBecomesCrashError(t *testing.T) {
	e := NewEnv()
	var hooked []string
	e.OnFailure = func(tk *Task, f ProcFailure) {
		hooked = append(hooked, fmt.Sprintf("%s:%v@%v", f.Proc, f.Cause, f.Time))
	}
	e.SpawnTask("boom", 3, func(tk *Task) {
		tk.SleepThen(2, func() { panic("bang") })
	})
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if len(ce.Failures) != 1 || ce.Failures[0].Proc != "boom3" {
		t.Fatalf("failures = %+v", ce.Failures)
	}
	if fmt.Sprint(hooked) != "[boom3:bang@2]" {
		t.Errorf("OnTaskFailure saw %v", hooked)
	}
}

func TestTaskPanicWhileParkedElsewhereIsClean(t *testing.T) {
	// A task that dies leaves no stale waiter entry: a later broadcast on
	// the cond it waited on must not try to wake the corpse.
	e := NewEnv()
	c := e.NewCond()
	e.SpawnTask("dead", -1, func(tk *Task) {
		c.WaitT(tk, func() {})
	})
	e.At(1, func() {
		e.Kill(findTask(e, "dead"), "chaos")
	})
	e.At(2, c.Broadcast)
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if c.waiters.len() != 0 {
		t.Errorf("cond still holds %d task waiters", c.waiters.len())
	}
}

func TestKillTaskSleeping(t *testing.T) {
	// A sleeping task has a queued resume; the kill is delivered when it
	// fires, like a sleeping Proc.
	e := NewEnv()
	var tk *Task
	reachedEnd := false
	tk = e.SpawnTask("victim", -1, func(tk *Task) {
		tk.SleepThen(100, func() { reachedEnd = true })
	})
	e.At(10, func() { e.Kill(tk, "crash") })
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if reachedEnd {
		t.Error("killed task still ran its continuation")
	}
	if f := ce.Failures[0]; f.Time != 100 {
		t.Errorf("death recorded at t=%v, want 100 (wake time)", f.Time)
	}
}

func TestTaskEventsCounted(t *testing.T) {
	e := NewEnv()
	e.SpawnTask("t", -1, func(tk *Task) {
		tk.SleepThen(1, func() {
			tk.SleepThen(1, func() {})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Spawn enqueues one start item and each SleepThen one resume item.
	if got := e.Events(); got != 3 {
		t.Errorf("Events() = %d, want 3", got)
	}
}

func TestTaskNamesLazily(t *testing.T) {
	e := NewEnv()
	tk := e.SpawnTask("rank", 7, func(tk *Task) {})
	if tk.name != "" {
		t.Fatalf("name %q formatted eagerly", tk.name)
	}
	if got := tk.Name(); got != "rank7" {
		t.Fatalf("Name() = %q, want rank7", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !tk.Done() {
		t.Error("task not done after Run")
	}
}

func TestKillTaskParkedInWaitUntilOnT(t *testing.T) {
	// Regression: a task killed while parked mid-predicate-wait must leave the
	// Cond's waiter list exactly once — the kill drops the entry, and the
	// later broadcast must not find a stale one (double-unpark would panic
	// "unblock of task that is not parked").
	e := NewEnv()
	c := e.NewCond().Named("pred-flag")
	val := 0
	var tk *Task
	tk = e.SpawnTask("victim", -1, func(tk *Task) {
		waitUntilT(c, tk, 3, func() bool { return val >= 3 }, func() {
			t.Error("killed task ran its continuation")
		})
	})
	e.At(1, func() { val = 1; c.Broadcast() }) // unsatisfied: retryWait parks again
	e.At(2, func() { e.Kill(tk, "chaos") })
	e.At(3, func() { val = 3; c.Broadcast() }) // must not touch the corpse
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if c.waiters.len() != 0 {
		t.Errorf("cond still holds %d task waiters after the kill", c.waiters.len())
	}
	if n := len(parkedTasks(e)); n != 0 {
		t.Errorf("%d tasks still marked parked", n)
	}
	if tk.wait != nil {
		t.Error("predicate-wait frame not cleared on task death")
	}
}

func TestInterruptTaskParkedInWaitUntilOnT(t *testing.T) {
	// An interrupt delivered mid-predicate-wait removes the waiter entry once
	// and hands control to OnInterrupt; the handler may re-arm a fresh wait on
	// the same Cond without leaving a duplicate entry behind.
	e := NewEnv()
	c := e.NewCond().Named("pred-flag")
	val := 0
	resumed := false
	var tk *Task
	tk = e.SpawnTask("w", -1, func(tk *Task) {
		tk.OnInterrupt = func(payload any) {
			if got := c.waiters.len(); got != 0 {
				t.Errorf("cond holds %d waiters during interrupt delivery, want 0", got)
			}
			waitUntilT(c, tk, 5, func() bool { return val >= 5 }, func() { resumed = true })
		}
		waitUntilT(c, tk, 5, func() bool { return val >= 5 }, func() {
			t.Error("interrupted wait's continuation ran")
		})
	})
	e.At(1, func() { e.Interrupt(tk, "poke") })
	e.At(2, func() {
		if got := c.waiters.len(); got != 1 {
			t.Errorf("cond holds %d waiters after re-arm, want exactly 1", got)
		}
		val = 5
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Error("re-armed wait never resumed")
	}
	if c.waiters.len() != 0 {
		t.Errorf("cond still holds %d waiters after completion", c.waiters.len())
	}
}

func TestKillTaskAfterBroadcastWakeInFlight(t *testing.T) {
	// Broadcast removes the waiter and schedules the resume; a kill landing
	// before the resume runs must not try to drop the waiter again, and the
	// queued resume must deliver the crash instead of the retry.
	e := NewEnv()
	c := e.NewCond()
	var tk *Task
	tk = e.SpawnTask("victim", -1, func(tk *Task) {
		waitUntilT(c, tk, -1, func() bool { return false }, func() {})
	})
	e.At(1, func() {
		c.Broadcast() // wake in flight: waiter removed, resume queued
		e.Kill(tk, "chaos")
	})
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if c.waiters.len() != 0 {
		t.Errorf("cond holds %d waiters", c.waiters.len())
	}
	if f := ce.Failures[0]; f.Time != 1 {
		t.Errorf("death recorded at t=%v, want 1", f.Time)
	}
}

func TestWaitUntilTReusesRetryFrame(t *testing.T) {
	// A predicate wait holds nothing but its frame in the task: an unmet
	// wake-up parks again with the same frame and no continuation of its
	// own, and a completed wait clears the frame before it resumes, so the
	// resume step can arm the next wait (or recycle the frame) at once.
	e := NewEnv()
	c := e.NewCond()
	val := 0
	waits := 0
	var tk *Task
	tk = e.SpawnTask("w", -1, func(tk *Task) {
		waitUntilT(c, tk, -1, func() bool { return val >= 2 }, func() {
			waits++
			if tk.wait != nil {
				t.Error("frame not cleared before the resume step")
			}
			waitUntilT(c, tk, -1, func() bool { return val >= 4 }, func() { waits++ })
		})
	})
	for i := 1; i <= 4; i++ {
		v := i
		e.At(Time(i), func() { val = v; c.Broadcast() })
	}
	var frames []WaitFrame
	for _, at := range []Time{0.5, 1.5, 2.5, 3.5} {
		e.At(at, func() {
			if !tk.parked || tk.k != nil || tk.waitOn != c || c.waiters.len() != 1 {
				t.Errorf("t=%v: parked=%v k set=%v on c=%v waiters=%d, want one frame-only park on c",
					e.Now(), tk.parked, tk.k != nil, tk.waitOn == c, c.waiters.len())
			}
			frames = append(frames, tk.wait)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waits != 2 {
		t.Errorf("completed %d waits, want 2", waits)
	}
	if frames[0] != frames[1] || frames[2] != frames[3] || frames[1] == frames[2] {
		t.Errorf("frames across the parks = %v; want one per wait, kept across its re-park", frames)
	}
}

func TestTaskUnwindStack(t *testing.T) {
	// Armed: kill runs pending compensations LIFO; popped entries don't run.
	// Disarmed: pushes are dropped.
	e := NewEnv()
	var order []string
	var tk *Task
	tk = e.SpawnTask("u", -1, func(tk *Task) {
		tk.PushUnwind(func() { order = append(order, "dropped") }) // disarmed: no-op
		tk.SetUnwindArmed(true)
		tk.PushUnwind(func() { order = append(order, "outer") })
		tk.PushUnwind(func() { order = append(order, "popped") })
		tk.PopUnwind()
		tk.PushUnwind(func() { order = append(order, "inner") })
		tk.SleepThen(100, func() {})
	})
	e.At(1, func() { e.Kill(tk, "chaos") })
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if fmt.Sprint(order) != "[inner outer]" {
		t.Errorf("unwinds ran as %v, want [inner outer]", order)
	}
}

// parkedTasks returns the registered tasks that are parked, in spawn order.
func parkedTasks(e *Env) []*Task {
	var out []*Task
	for _, tk := range e.tasks {
		if tk.parked {
			out = append(out, tk)
		}
	}
	return out
}

// findTask returns the single parked task with the given name.
func findTask(e *Env, name string) *Task {
	for _, tk := range parkedTasks(e) {
		if tk.Name() == name {
			return tk
		}
	}
	return nil
}

// len counts the tasks parked on the list.
func (l *taskList) len() int {
	n := 0
	for t := l.head; t != nil; t = t.waitNext {
		n++
	}
	return n
}

// predFrame adapts a predicate and a continuation to WaitFrame, and
// waitUntilT parks on it the way the flag and counter primitives park on
// their frames: a condition that already holds continues inline.
type predFrame struct {
	pred func() bool
	k    func()
}

func (f *predFrame) Ready() bool { return f.pred() }
func (f *predFrame) Resume()     { f.k() }

func waitUntilT(c *Cond, tk *Task, want int, pred func() bool, k func()) {
	if pred() {
		k()
		return
	}
	c.WaitFrameT(tk, nil, want, &predFrame{pred, k})
}
