package sim

import (
	"errors"
	"fmt"
	"testing"
)

// Interrupts and kills delivered to processes and tasks in every state: the
// mechanics fault tolerance unwinds blocked collectives with.

func TestInterruptParkedProcess(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var got any
	var at Time
	e.Spawn("p", func(p *Proc) {
		defer func() {
			got = recover()
			at = p.Now()
		}()
		p.Wait(ev)
	})
	e.At(7, func() {
		for _, p := range parkedTasks(e) {
			e.Interrupt(p, nil) // nil payload is a no-op
			e.Interrupt(p, "revoked")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "revoked" {
		t.Errorf("recovered %v, want \"revoked\"", got)
	}
	if at != 7 {
		t.Errorf("interrupt delivered at t=%v, want 7", at)
	}
	if ev.waiters.len() != 0 {
		t.Errorf("event still holds %d waiters after interrupt", ev.waiters.len())
	}
}

func TestInterruptDropsWaiterSoTriggerIsClean(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	other := e.NewEvent()
	var order []string
	e.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() != nil {
				order = append(order, "a:interrupted")
				// Survive and park somewhere else; a stale waiter entry on
				// ev would wake us spuriously when ev triggers.
			}
			p.Wait(other)
			order = append(order, "a:other")
		}()
		p.Wait(ev)
	})
	e.Spawn("b", func(p *Proc) {
		p.Wait(ev)
		order = append(order, "b:ev")
	})
	e.At(1, func() {
		for _, p := range parkedTasks(e) {
			if p.Name() == "a" {
				e.Interrupt(p, "intr")
			}
		}
	})
	e.At(2, ev.Trigger)
	e.At(3, other.Trigger)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a:interrupted b:ev a:other]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestInterruptSleepingProcessDeliversAtWake(t *testing.T) {
	e := NewEnv()
	var at Time
	victim := e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				at = p.Now()
			}
		}()
		p.Sleep(100)
	})
	e.At(10, func() { e.Interrupt(&victim.Task, "late") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Errorf("interrupt delivered at t=%v, want 100 (end of sleep)", at)
	}
}

func TestInterruptParkedTask(t *testing.T) {
	// The Task-engine mirror of TestInterruptParkedProcess: an interrupted
	// state machine is removed from its waiter list and its handler runs at
	// the interrupt time, not at a later broadcast.
	e := NewEnv()
	c := e.NewCond()
	var got any
	var at Time
	e.SpawnTask("t", -1, func(tk *Task) {
		tk.OnInterrupt = func(payload any) {
			got = payload
			at = tk.Now()
		}
		c.WaitT(tk, func() { t.Error("wait continuation ran despite interrupt") })
	})
	e.At(7, func() {
		tk := findTask(e, "t")
		e.Interrupt(tk, nil) // nil payload is a no-op
		e.Interrupt(tk, "revoked")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "revoked" {
		t.Errorf("handler got %v, want \"revoked\"", got)
	}
	if at != 7 {
		t.Errorf("interrupt delivered at t=%v, want 7", at)
	}
	if c.waiters.len() != 0 {
		t.Errorf("cond still holds %d task waiters after interrupt", c.waiters.len())
	}
}

func TestInterruptDropsTaskWaiterSoBroadcastIsClean(t *testing.T) {
	// The Task-engine mirror of TestInterruptDropsWaiterSoTriggerIsClean: the
	// handler survives and parks somewhere else; a stale waiter entry on ev
	// would wake it spuriously when ev triggers.
	e := NewEnv()
	ev := e.NewEvent()
	other := e.NewEvent()
	var order []string
	e.SpawnTask("a", -1, func(tk *Task) {
		tk.OnInterrupt = func(payload any) {
			order = append(order, "a:interrupted")
			other.WaitT(tk, func() { order = append(order, "a:other") })
		}
		ev.WaitT(tk, func() { order = append(order, "a:ev") })
	})
	e.SpawnTask("b", -1, func(tk *Task) {
		ev.WaitT(tk, func() { order = append(order, "b:ev") })
	})
	e.At(1, func() { e.Interrupt(findTask(e, "a"), "intr") })
	e.At(2, ev.Trigger)
	e.At(3, other.Trigger)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a:interrupted b:ev a:other]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
	if ev.waiters.len() != 0 {
		t.Errorf("ev still holds %d task waiters", ev.waiters.len())
	}
}

func TestInterruptSleepingTaskDeliversAtWake(t *testing.T) {
	e := NewEnv()
	var at Time
	var tk *Task
	tk = e.SpawnTask("t", -1, func(tk *Task) {
		tk.OnInterrupt = func(payload any) { at = tk.Now() }
		tk.SleepThen(100, func() { t.Error("sleep continuation ran despite interrupt") })
	})
	e.At(10, func() { e.Interrupt(tk, "late") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Errorf("interrupt delivered at t=%v, want 100 (end of sleep)", at)
	}
}

func TestInterruptTaskWithoutHandlerDies(t *testing.T) {
	e := NewEnv()
	c := e.NewCond()
	e.SpawnTask("t", -1, func(tk *Task) {
		c.WaitT(tk, func() {})
	})
	e.At(1, func() { e.Interrupt(findTask(e, "t"), "unhandled") })
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if len(ce.Failures) != 1 || fmt.Sprint(ce.Failures[0].Cause) != "unhandled" {
		t.Fatalf("failures = %+v, want one with cause \"unhandled\"", ce.Failures)
	}
	if c.waiters.len() != 0 {
		t.Errorf("cond still holds %d task waiters", c.waiters.len())
	}
}

func TestKillTaskBeatsInterrupt(t *testing.T) {
	e := NewEnv()
	c := e.NewCond()
	sawInterrupt := false
	e.SpawnTask("t", -1, func(tk *Task) {
		tk.OnInterrupt = func(payload any) { sawInterrupt = true }
		c.WaitT(tk, func() {})
	})
	e.At(1, func() {
		tk := findTask(e, "t")
		e.Kill(tk, "dead")
		e.Interrupt(tk, "intr") // no-op on a killed task
	})
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if sawInterrupt {
		t.Error("task saw interrupt instead of crash")
	}
}

func TestKillBeatsInterrupt(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	reached := false
	victim := e.Spawn("p", func(p *Proc) {
		defer func() {
			if _, ok := recover().(Crashed); ok {
				reached = true
				panic(Crashed{Reason: "rethrow"})
			}
		}()
		p.Wait(ev)
	})
	e.At(1, func() {
		e.Kill(&victim.Task, "dead")
		e.Interrupt(&victim.Task, "intr") // no-op on a killed process
	})
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if !reached {
		t.Error("process saw interrupt instead of crash")
	}
}

func TestInterruptFinishedProcessIsNoop(t *testing.T) {
	e := NewEnv()
	p := e.Spawn("p", func(p *Proc) {})
	e.At(5, func() { e.Interrupt(&p.Task, "x") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOnFailureHookSeesCause(t *testing.T) {
	e := NewEnv()
	var hooked []string
	e.OnFailure = func(_ *Task, f ProcFailure) {
		hooked = append(hooked, fmt.Sprintf("%s:%v", f.Proc, f.Cause))
	}
	e.Spawn("boom", func(p *Proc) { panic("bang") })
	err := e.Run()
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want CrashError", err)
	}
	if fmt.Sprint(hooked) != "[boom:bang]" {
		t.Errorf("hook saw %v", hooked)
	}
}
