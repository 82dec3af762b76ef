package shm

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

func testMachine(tpn int) (*sim.Env, *machine.Machine) {
	env := sim.NewEnv()
	return env, machine.New(env, machine.ColonySP(1, tpn))
}

func TestFlagStartsZero(t *testing.T) {
	_, m := testMachine(2)
	f := NewFlag(m, 0)
	if f.val != 0 {
		t.Fatalf("initial flag = %d", f.val)
	}
}

func TestFlagSetObservedAfterWakeLatency(t *testing.T) {
	env, m := testMachine(2)
	f := NewFlag(m, 0)
	var woke sim.Time
	env.Spawn("waiter", func(p *sim.Proc) {
		f.WaitFor(p, 1)
		woke = p.Now()
	})
	env.Spawn("setter", func(p *sim.Proc) {
		p.Sleep(10)
		f.Set(1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 10 + m.WakeLatency()
	if math.Abs(woke-want) > 1e-9 {
		t.Fatalf("waiter woke at %v, want %v", woke, want)
	}
}

func TestFlagWaitSatisfiedImmediately(t *testing.T) {
	env, m := testMachine(2)
	f := NewFlag(m, 0)
	f.Set(3)
	env.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(5)
		f.WaitFor(p, 3)
		if p.Now() != 5 {
			t.Errorf("already-set flag delayed waiter to %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagMultipleTransitions(t *testing.T) {
	env, m := testMachine(2)
	f := NewFlag(m, 0)
	var seen []int
	env.Spawn("waiter", func(p *sim.Proc) {
		f.WaitFor(p, 1)
		seen = append(seen, 1)
		f.WaitFor(p, 2)
		seen = append(seen, 2)
	})
	// Woken by the first store and still short of its value: it parks again.
	env.Spawn("threshold", func(p *sim.Proc) {
		f.WaitGE(p, 2)
		if f.val < 2 || p.Now() < 6 {
			t.Errorf("WaitGE(2) returned at t=%v with the flag at %d", p.Now(), f.val)
		}
	})
	env.Spawn("setter", func(p *sim.Proc) {
		p.Sleep(1)
		f.Set(1)
		p.Sleep(5)
		f.Set(2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[1 2]" {
		t.Fatalf("transitions seen = %v", seen)
	}
	_ = m
}

func TestSpinnerCountsOnlyWithoutYield(t *testing.T) {
	env := sim.NewEnv()
	cfg := machine.ColonySP(1, 2)
	cfg.SpinYield = false
	m := machine.New(env, cfg)
	f := NewFlag(m, 0)
	env.Spawn("waiter", func(p *sim.Proc) { f.WaitFor(p, 1) })
	env.Spawn("check", func(p *sim.Proc) {
		p.Sleep(1)
		if got := m.SpinPenalty(0); got != cfg.StarvePenalty {
			t.Errorf("penalty while spinning = %v, want %v", got, cfg.StarvePenalty)
		}
		f.Set(1)
		p.Sleep(10)
		if got := m.SpinPenalty(0); got != 0 {
			t.Errorf("penalty after release = %v, want 0", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagSetWaitsAll(t *testing.T) {
	env, m := testMachine(4)
	fs := NewFlagSet(m, 0, 4)
	var done sim.Time
	env.Spawn("master", func(p *sim.Proc) {
		fs.WaitAll(p, 1, 0) // skip own slot 0
		done = p.Now()
	})
	for i := 1; i < 4; i++ {
		i := i
		env.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 3)
			fs.Flag(i).Set(1)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 9 + m.WakeLatency() // last check-in at t=9
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("master released at %v, want %v", done, want)
	}
}

func TestFlagSetLenAndAccess(t *testing.T) {
	_, m := testMachine(3)
	fs := NewFlagSet(m, 0, 3)
	if len(fs.flags) != 3 {
		t.Fatalf("%d flags", len(fs.flags))
	}
	for i := 0; i < 3; i++ {
		fs.Flag(i).Set(7 + i)
	}
	for i := range fs.flags {
		if int(fs.flags[i].val) != 7+i {
			t.Fatalf("flag %d = %d after Flag(%d).Set(%d)", i, fs.flags[i].val, i, 7+i)
		}
	}
}

// Property: a flag set to any value it holds (an int32) is eventually observed
// by any number of waiters, all at the same wake time.
func TestPropFlagBroadcast(t *testing.T) {
	f := func(nWaiters uint8, v32 int32) bool {
		v := int(v32)
		if v == 0 {
			v = 1
		}
		n := int(nWaiters%8) + 1
		env, m := testMachine(8)
		f := NewFlag(m, 0)
		times := make([]sim.Time, 0, n)
		for i := 0; i < n; i++ {
			env.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				f.WaitFor(p, v)
				times = append(times, p.Now())
			})
		}
		env.Spawn("s", func(p *sim.Proc) { p.Sleep(2); f.Set(v) })
		if env.Run() != nil || len(times) != n {
			return false
		}
		for _, tt := range times {
			if tt != times[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A value past int32 is refused where it is stored, not wrapped.
func TestFlagValueOverflowPanics(t *testing.T) {
	_, m := testMachine(2)
	f := NewFlag(m, 0)
	defer func() {
		if recover() == nil {
			t.Error("Set(1<<31) did not panic")
		}
	}()
	f.Set(1 << 31)
}
