package sim

import (
	"fmt"
	"testing"
)

// The waiter list of a Cond or Event is threaded through the parked tasks
// themselves (taskList). These tests hold its observable contract: wake
// order is wait order, removing one waiter leaves the order of the others,
// and a wake-up empties the list before any woken task runs.

// parkFleet spawns n tasks named w0..w(n-1) that park on c in spawn order
// and append their index to *woke when they resume.
func parkFleet(e *Env, c *Cond, n int, woke *[]int) []*Task {
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = e.SpawnTask("w", i, func(tk *Task) {
			c.WaitT(tk, func() { *woke = append(*woke, tk.Num()) })
		})
	}
	return tasks
}

func TestWaitersWakeInWaitOrder(t *testing.T) {
	e := NewEnv()
	c := e.NewCond()
	var woke []int
	parkFleet(e, c, 6, &woke)
	e.At(1, c.Broadcast)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(woke) != "[0 1 2 3 4 5]" {
		t.Errorf("wake order = %v, want the wait order", woke)
	}
	if c.waiters.head != nil || c.waiters.tail != nil {
		t.Error("list not empty after the broadcast")
	}
}

func TestProcsAndTasksWakeInWaitOrder(t *testing.T) {
	// A Cond and an Event waited on alternately by processes and plain tasks:
	// there is one waiter list, so the wake order is the wait order whatever
	// form the waiter's body has (processes used to be woken first).
	e := NewEnv()
	c, ev := e.NewCond(), e.NewEvent()
	var woke []string
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			e.SpawnIndexed("p", i, func(p *Proc) {
				c.Wait(p)
				woke = append(woke, "c:"+p.Name())
				p.Wait(ev)
				woke = append(woke, "e:"+p.Name())
			})
			continue
		}
		e.SpawnTask("t", i, func(tk *Task) {
			c.WaitT(tk, func() {
				woke = append(woke, "c:"+tk.Name())
				ev.WaitK(tk, Func(func() { woke = append(woke, "e:"+tk.Name()) }))
			})
		})
	}
	e.At(1, c.Broadcast)
	e.At(2, ev.Trigger)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[c:p0 c:t1 c:p2 c:t3 c:p4 c:t5 e:p0 e:t1 e:p2 e:t3 e:p4 e:t5]"
	if fmt.Sprint(woke) != want {
		t.Errorf("wake order = %v\nwant the wait order %v", woke, want)
	}
}

func TestWaitersDropKeepsOrder(t *testing.T) {
	// Remove the head, a middle and the tail waiter, by interrupt and by
	// kill; the survivors must still wake in wait order, and a task parking
	// afterwards must land behind them (the tail pointer followed the drop).
	for _, c := range []struct {
		name   string
		victim int
		want   string
	}{
		{"head", 0, "[1 2 3 4 9]"},
		{"middle", 2, "[0 1 3 4 9]"},
		{"tail", 4, "[0 1 2 3 9]"},
	} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/kill=%v", c.name, kill), func(t *testing.T) {
				e := NewEnv()
				cond := e.NewCond()
				var woke []int
				tasks := parkFleet(e, cond, 5, &woke)
				victim := tasks[c.victim]
				victim.SetOnInterrupt(onInterrupt(func(any) {})) // survive the interrupt, then finish
				e.At(1, func() {
					if kill {
						e.Kill(victim, "chaos")
					} else {
						e.Interrupt(victim, "poke")
					}
					if victim.waitNext != nil {
						t.Error("dropped waiter still links into the list")
					}
				})
				e.At(2, func() {
					e.SpawnTask("w", 9, func(tk *Task) {
						cond.WaitT(tk, func() { woke = append(woke, tk.Num()) })
					})
				})
				e.At(3, cond.Broadcast)
				err := e.Run()
				if _, crashed := err.(*CrashError); err != nil && !(kill && crashed) {
					t.Fatal(err)
				}
				if fmt.Sprint(woke) != c.want {
					t.Errorf("wake order = %v, want %v", woke, c.want)
				}
			})
		}
	}
}

func TestWaitersReparkWaitsForNextBroadcast(t *testing.T) {
	// Every waiter parks again on the same Cond from its resume step. The
	// broadcast that woke them detached the list first, so none of them is
	// woken twice by it: each round takes its own broadcast, in wait order.
	e := NewEnv()
	c := e.NewCond()
	var woke []string
	for i := 0; i < 3; i++ {
		e.SpawnTask("w", i, func(tk *Task) {
			round := 0
			var again func()
			again = func() {
				woke = append(woke, fmt.Sprintf("%d@%v", tk.Num(), tk.Now()))
				if round++; round < 2 {
					c.WaitT(tk, again)
				}
			}
			c.WaitT(tk, again)
		})
	}
	e.At(1, c.Broadcast)
	e.At(1, func() {
		// Same instant, after the broadcast: the three resumes are queued,
		// the list is empty, and nothing has parked again yet.
		if c.waiters.len() != 0 {
			t.Errorf("%d waiters on the list while the wake-ups are in flight", c.waiters.len())
		}
	})
	e.At(5, c.Broadcast)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "[0@1 1@1 2@1 0@5 1@5 2@5]"; fmt.Sprint(woke) != want {
		t.Errorf("resumes = %v, want %v", woke, want)
	}
}

func TestBlockedSortedByNameOnBothEngines(t *testing.T) {
	// The same stuck program in either body form must yield the same report:
	// blocked entries sorted by name (not by spawn or park order), with the
	// resource ids the Conds drew at creation.
	report := func(tasks bool) string {
		e := NewEnv()
		flags := []*Cond{e.NewCond(), named(e.NewCond(), "release")}
		for _, n := range []int{7, 10, 2, 31} {
			on := flags[n%2]
			if tasks {
				e.SpawnTask("rank", n, func(tk *Task) { on.WaitT(tk, func() {}) })
			} else {
				e.SpawnIndexed("rank", n, func(p *Proc) { on.Wait(p) })
			}
		}
		// One that finishes and one that is asleep at the snapshot: neither
		// may appear.
		if tasks {
			e.SpawnTask("done", -1, func(tk *Task) {})
			e.SpawnTask("sleeper", -1, func(tk *Task) { tk.SleepThen(100, func() {}) })
		} else {
			e.Spawn("done", func(p *Proc) {})
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
		}
		if err := e.RunUntil(50); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", e.Blocked())
	}
	want := "[{Name:rank10 Since:0 Resource:cond#1 Waiting:cond#1}" +
		" {Name:rank2 Since:0 Resource:cond#1 Waiting:cond#1}" +
		" {Name:rank31 Since:0 Resource:release Waiting:release}" +
		" {Name:rank7 Since:0 Resource:release Waiting:release}]"
	if got := report(false); got != want {
		t.Errorf("Proc engine: Blocked() = %s\nwant %s", got, want)
	}
	if got := report(true); got != want {
		t.Errorf("Task engine: Blocked() = %s\nwant %s", got, want)
	}
}

func TestTaskRegistrySweepsFinishedTasks(t *testing.T) {
	// Blocked() walks a registry of spawned tasks instead of a parked set.
	// A run that keeps spawning short-lived helpers must not grow it: a full
	// registry drops the finished ones before it doubles.
	e := NewEnv()
	c := e.NewCond()
	e.SpawnTask("stuck", -1, func(tk *Task) { c.WaitT(tk, func() {}) })
	for i := 0; i < 10000; i++ {
		e.After(Time(i), func() { e.SpawnTask("helper", -1, func(tk *Task) {}) })
	}
	err := e.Run()
	if _, ok := err.(*DeadlockError); !ok {
		t.Fatalf("Run() = %v, want the stuck task's deadlock", err)
	}
	if len(e.tasks) > 8 {
		t.Errorf("registry holds %d tasks after 10000 one-step helpers, one of them live", len(e.tasks))
	}
	if b := e.Blocked(); len(b) != 1 || b[0].Name != "stuck" {
		t.Errorf("Blocked() = %+v, want the stuck task alone", b)
	}
}

// BlockedWhere reports the parked tasks its filter keeps, as Blocked would,
// and counts them all; it names no task the filter turns down, so a report on
// a few of a large run formats no name of the rest. HasName and WaitsOn, the
// filters diverge uses, match what Name and the resource would say.
func TestBlockedWhere(t *testing.T) {
	e := NewEnv()
	a, b := e.NewCond(), e.NewCond()
	var tasks []*Task
	for i := range 15 {
		c, prefix := b, "y"
		if i < 3 {
			c, prefix = a, "x"
		}
		tasks = append(tasks, e.SpawnTask(prefix, i, func(tk *Task) { c.WaitT(tk, func() {}) }))
	}
	e.SpawnTask("sleeper", -1, func(tk *Task) { tk.SleepThen(100, func() {}) })
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	// A plain task formats its name without keeping it; give each parked one a
	// side record, where Name caches, so a name formatted shows below.
	for _, tk := range tasks {
		e.SetSlowdown(tk, 2)
	}
	for _, tc := range []struct {
		keep  func(*Task) bool
		names string
	}{
		{func(tk *Task) bool { return tk.WaitsOn(a) }, "[x0 x1 x2]"},
		{func(tk *Task) bool { return tk.HasName("y11") }, "[y11]"},
		{func(tk *Task) bool { return tk.HasName("y") || tk.HasName("y011") || tk.HasName("x11") }, "[]"},
	} {
		kept, parked := e.BlockedWhere(tc.keep)
		var names []string
		for _, k := range kept {
			names = append(names, k.Name)
		}
		if fmt.Sprint(names) != tc.names || parked != len(tasks) {
			t.Errorf("kept %v of %d parked, want %s of %d", names, parked, tc.names, len(tasks))
		}
	}
	for _, tk := range tasks[3:] {
		if cachedName(tk) != "" && tk.num != 11 {
			t.Errorf("%s: name formatted by a walk that did not keep it", tk.Name())
		}
	}
	all, _ := e.BlockedWhere(nil)
	if fmt.Sprint(e.Blocked()) != fmt.Sprint(all) || len(all) != len(tasks) {
		t.Errorf("Blocked() = %v, BlockedWhere(nil) = %v", e.Blocked(), all)
	}
}
