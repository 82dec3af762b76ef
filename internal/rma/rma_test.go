package rma

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

// twoNodes builds a 2-node machine with tpn tasks per node and a domain.
func twoNodes(tpn int) (*sim.Env, *machine.Machine, *Domain) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, tpn))
	return env, m, NewDomain(m)
}

func TestCounterWaitcntrSubtracts(t *testing.T) {
	env, _, d := twoNodes(1)
	c := d.NewCounter(0)
	env.Spawn("w", func(p *sim.Proc) {
		d.Endpoint(0).Waitcntr(p, c, 2)
		if c.val != 1 {
			t.Errorf("counter after Waitcntr(2) = %d, want 1", c.val)
		}
	})
	env.Spawn("s", func(p *sim.Proc) {
		p.Sleep(1)
		c.Incr(3)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCounterInitialValue(t *testing.T) {
	env, _, d := twoNodes(1)
	c := d.NewCounter(2)
	env.Spawn("w", func(p *sim.Proc) {
		d.Endpoint(0).Waitcntr(p, c, 2) // satisfied immediately
		if p.Now() != 0 {
			t.Errorf("pre-satisfied Waitcntr advanced time to %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// A counter holds an int32: a value past it is refused where it is reached,
// not wrapped.
func TestCounterOverflowPanics(t *testing.T) {
	_, _, d := twoNodes(1)
	c := d.NewCounter(math.MaxInt32)
	defer func() {
		if recover() == nil {
			t.Error("Incr past MaxInt32 did not panic")
		}
	}()
	c.Incr(1)
}

func TestPutDeliversDataWhileTargetWaits(t *testing.T) {
	env, m, d := twoNodes(1)
	src := []byte("remote payload!!")
	dst := make([]byte, len(src))
	tgt := d.NewCounter(0)
	var recvAt sim.Time
	env.Spawn("recv", func(p *sim.Proc) {
		d.Endpoint(1).Waitcntr(p, tgt, 1)
		recvAt = p.Now()
	})
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, src, nil, tgt, nil)
		// Non-blocking: sender returns after the CPU overhead only.
		if math.Abs(p.Now()-m.Cfg.SendOverhead) > 1e-9 {
			t.Errorf("Put blocked sender until %v, want %v", p.Now(), m.Cfg.SendOverhead)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("dst = %q", dst)
	}
	want := m.Cfg.SendOverhead + m.Cfg.NetPktOverhead +
		sim.Time(len(src))*m.Cfg.NetPerByte + m.Cfg.NetLatency + m.Cfg.RecvOverhead
	if math.Abs(recvAt-want) > 1e-9 {
		t.Errorf("delivery at %v, want %v (polled path)", recvAt, want)
	}
	if m.Stats.Puts != 1 || m.Stats.PutBytes != int64(len(src)) {
		t.Errorf("stats: %+v", m.Stats)
	}
	if m.Stats.Interrupts != 0 {
		t.Errorf("polled delivery used %d interrupts", m.Stats.Interrupts)
	}
}

func TestOriginCounterFiresAtInjectionEnd(t *testing.T) {
	env, m, d := twoNodes(1)
	n := 10 << 10
	src, dst := make([]byte, n), make([]byte, n)
	org := d.NewCounter(0)
	var freedAt sim.Time
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, src, org, nil, nil)
		d.Endpoint(0).Waitcntr(p, org, 1)
		freedAt = p.Now()
	})
	// Target side never enters a call; that's fine, interrupts are on.
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	inject := m.Cfg.NetPktOverhead + sim.Time(n)*m.Cfg.NetPerByte
	if math.Abs(freedAt-(m.Cfg.SendOverhead+inject)) > 1e-6 {
		t.Errorf("origin buffer freed at %v, want ~%v", freedAt, m.Cfg.SendOverhead+inject)
	}
}

func TestCompletionCounterRoundTrip(t *testing.T) {
	env, m, d := twoNodes(1)
	src, dst := make([]byte, 8), make([]byte, 8)
	cmpl := d.NewCounter(0)
	var doneAt sim.Time
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, src, nil, nil, cmpl)
		d.Endpoint(0).Waitcntr(p, cmpl, 1)
		doneAt = p.Now()
	})
	env.Spawn("recv", func(p *sim.Proc) {
		c := d.NewCounter(0)
		d.Endpoint(1).Waitcntr(p, c, 0) // park in a call so dispatcher polls
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	oneWay := m.Cfg.NetPktOverhead + 8*m.Cfg.NetPerByte + m.Cfg.NetLatency + m.Cfg.RecvOverhead
	want := m.Cfg.SendOverhead + oneWay + m.Cfg.NetLatency
	if doneAt < want-1e-9 {
		t.Errorf("completion at %v, want >= %v (includes return latency)", doneAt, want)
	}
}

func TestPutInterruptWhenTargetBusy(t *testing.T) {
	env, m, d := twoNodes(1)
	src, dst := []byte{1, 2, 3, 4}, make([]byte, 4)
	tgt := d.NewCounter(0)
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, src, nil, tgt, nil)
	})
	// Target computes, never in an RMA call during arrival.
	env.Spawn("busy", func(p *sim.Proc) { p.Sleep(1000) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Interrupts != 1 {
		t.Fatalf("interrupts = %d, want 1", m.Stats.Interrupts)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("data not delivered via interrupt path")
	}
}

func TestPutDeferredWithoutInterrupts(t *testing.T) {
	env, m, d := twoNodes(1)
	src, dst := []byte{9, 9}, make([]byte, 2)
	tgt := d.NewCounter(0)
	d.Endpoint(1).SetInterrupts(false)
	var deliveredAt sim.Time
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, src, nil, tgt, nil)
	})
	env.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(500) // long after arrival
		d.Endpoint(1).Waitcntr(p, tgt, 1)
		deliveredAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Deferrals != 1 || m.Stats.Interrupts != 0 {
		t.Fatalf("deferrals=%d interrupts=%d", m.Stats.Deferrals, m.Stats.Interrupts)
	}
	if deliveredAt < 500 {
		t.Fatalf("delivered at %v, want deferred past 500", deliveredAt)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("deferred data not delivered")
	}
}

func TestSetInterruptsReleasesPending(t *testing.T) {
	env, m, d := twoNodes(1)
	src, dst := []byte{5}, make([]byte, 1)
	tgt := d.NewCounter(0)
	d.Endpoint(1).SetInterrupts(false)
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, src, nil, tgt, nil)
	})
	env.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(200)
		d.Endpoint(1).SetInterrupts(true) // operation complete; re-enable (§2.3)
		p.Sleep(200)
		if tgt.val != 1 {
			t.Errorf("counter = %d after re-enabling interrupts", tgt.val)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Interrupts != 1 {
		t.Fatalf("interrupts = %d, want 1 (release path)", m.Stats.Interrupts)
	}
}

func TestProbeDrainsDeferred(t *testing.T) {
	env, _, d := twoNodes(1)
	tgt := d.NewCounter(0)
	d.Endpoint(1).SetInterrupts(false)
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).PutZero(p, d.Endpoint(1), tgt)
	})
	env.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(300)
		d.Endpoint(1).drainPending(&p.Task, p.Resume())
		p.Park()
		if tgt.val != 1 {
			t.Errorf("counter after draining the deferred delivery = %d, want 1", tgt.val)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackPutSameNode(t *testing.T) {
	env, m, d := twoNodes(2) // ranks 0,1 on node 0
	src, dst := []byte("local"), make([]byte, 5)
	tgt := d.NewCounter(0)
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, src, nil, tgt, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) || tgt.val != 1 {
		t.Fatalf("loopback failed: dst=%q cntr=%d", dst, tgt.val)
	}
	if m.Stats.ShmCopies != 1 {
		t.Fatalf("loopback should use one shm copy, got %d", m.Stats.ShmCopies)
	}
}

func TestZeroBytePutFlowControl(t *testing.T) {
	// Ping-pong of zero-byte puts: the §2.4 buffer-free protocol.
	env, _, d := twoNodes(1)
	const rounds = 4
	aDone, bDone := 0, 0
	ca, cb := d.NewCounter(0), d.NewCounter(0)
	env.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			d.Endpoint(0).PutZero(p, d.Endpoint(1), cb)
			d.Endpoint(0).Waitcntr(p, ca, 1)
			aDone++
		}
	})
	env.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			d.Endpoint(1).Waitcntr(p, cb, 1)
			d.Endpoint(1).PutZero(p, d.Endpoint(0), ca)
			bDone++
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if aDone != rounds || bDone != rounds {
		t.Fatalf("rounds done: a=%d b=%d", aDone, bDone)
	}
}

func TestAMRunsHandlerWithPayload(t *testing.T) {
	env, m, d := twoNodes(1)
	var got []byte
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).AMT(&p.Task, d.Endpoint(1), []byte("hdr"), func(b []byte) {
			got = append([]byte(nil), b...)
		}, p.Resume())
		p.Park()
	})
	env.Spawn("recv", func(p *sim.Proc) {
		c := d.NewCounter(0)
		d.Endpoint(1).Waitcntr(p, c, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hdr" {
		t.Fatalf("handler payload = %q", got)
	}
	if m.Stats.ActiveMsgs != 1 {
		t.Fatalf("activeMsgs = %d", m.Stats.ActiveMsgs)
	}
}

func TestAMLoopback(t *testing.T) {
	env, _, d := twoNodes(2)
	ran := false
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).AMT(&p.Task, d.Endpoint(1), nil, func([]byte) { ran = true }, p.Resume())
		p.Park()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("loopback AM handler did not run")
	}
}

func TestGetBlockingFetches(t *testing.T) {
	env, m, d := twoNodes(1)
	src := []byte("far side data bytes")
	dst := make([]byte, len(src))
	var took sim.Time
	env.Spawn("origin", func(p *sim.Proc) {
		d.Endpoint(0).GetBlocking(p, d.Endpoint(1), dst, src)
		took = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("get result = %q", dst)
	}
	if took < 2*m.Cfg.NetLatency {
		t.Errorf("get completed in %v, faster than 2x wire latency %v", took, 2*m.Cfg.NetLatency)
	}
	if m.Stats.Gets != 1 {
		t.Errorf("gets = %d", m.Stats.Gets)
	}
}

func TestGetLoopback(t *testing.T) {
	env, _, d := twoNodes(2)
	src, dst := []byte{1, 2, 3}, make([]byte, 3)
	env.Spawn("o", func(p *sim.Proc) {
		d.Endpoint(0).GetBlocking(p, d.Endpoint(1), dst, src)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("loopback get failed")
	}
}

func TestPutLengthMismatchPanics(t *testing.T) {
	env, _, d := twoNodes(1)
	env.Spawn("s", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on length mismatch")
			}
		}()
		d.Endpoint(0).Put(p, d.Endpoint(1), make([]byte, 2), make([]byte, 3), nil, nil, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNICSerializationOrdersArrivals(t *testing.T) {
	env, m, d := twoNodes(1)
	const n = 64 << 10
	a, b := make([]byte, n), make([]byte, n)
	ca, cb := d.NewCounter(0), d.NewCounter(0)
	var firstAt, secondAt sim.Time
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), a, make([]byte, n), nil, ca, nil)
		d.Endpoint(0).Put(p, d.Endpoint(1), b, make([]byte, n), nil, cb, nil)
	})
	env.Spawn("recv", func(p *sim.Proc) {
		d.Endpoint(1).Waitcntr(p, ca, 1)
		firstAt = p.Now()
		d.Endpoint(1).Waitcntr(p, cb, 1)
		secondAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	wire := m.Cfg.NetPktOverhead + sim.Time(n)*m.Cfg.NetPerByte
	if secondAt-firstAt < wire-1e-6 {
		t.Errorf("arrivals %v apart, want >= serialized injection %v", secondAt-firstAt, wire)
	}
}

func TestStarvationPenaltyAppliedOnInterruptPath(t *testing.T) {
	run := func(yield bool) sim.Time {
		env := sim.NewEnv()
		cfg := machine.ColonySP(2, 2)
		cfg.SpinYield = yield
		m := machine.New(env, cfg)
		d := NewDomain(m)
		tgt := d.NewCounter(0)
		var at sim.Time
		// A task on node 1 spins on a flag (never satisfied during the test).
		m.SpinEnter(1)
		env.Spawn("send", func(p *sim.Proc) {
			d.Endpoint(0).PutZero(p, d.Endpoint(2), tgt)
		})
		env.Spawn("watch", func(p *sim.Proc) {
			for tgt.val == 0 {
				p.Sleep(0.5)
			}
			at = p.Now()
		})
		if err := env.Run(); err != nil {
			panic(err)
		}
		return at
	}
	withYield, without := run(true), run(false)
	if without <= withYield {
		t.Errorf("delivery with non-yield spinner (%v) should be slower than with yield (%v)",
			without, withYield)
	}
}

// Property: n puts into disjoint slots all land and the counter totals n.
func TestPropManyPutsAllLand(t *testing.T) {
	f := func(count uint8) bool {
		n := int(count%16) + 1
		env, _, d := twoNodes(1)
		buf := make([]byte, n)
		tgt := d.NewCounter(0)
		env.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				d.Endpoint(0).Put(p, d.Endpoint(1), buf[i:i+1], []byte{byte(i + 1)}, nil, tgt, nil)
			}
		})
		env.Spawn("recv", func(p *sim.Proc) {
			d.Endpoint(1).Waitcntr(p, tgt, n)
		})
		if env.Run() != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if buf[i] != byte(i+1) {
				return false
			}
		}
		return tgt.val == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Waitcntr consumes exactly v regardless of increment batching.
func TestPropWaitcntrConservation(t *testing.T) {
	f := func(incs []uint8) bool {
		total := 0
		for _, v := range incs {
			total += int(v % 4)
		}
		if total == 0 {
			return true
		}
		env, _, d := twoNodes(1)
		c := d.NewCounter(0)
		ok := true
		env.Spawn("w", func(p *sim.Proc) {
			d.Endpoint(0).Waitcntr(p, c, total)
			ok = c.val == 0
		})
		env.Spawn("i", func(p *sim.Proc) {
			for _, v := range incs {
				p.Sleep(1)
				if v%4 > 0 {
					c.Incr(int(v % 4))
				}
			}
		})
		return env.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainEndpoints(t *testing.T) {
	_, m, d := twoNodes(3)
	if d.m != m {
		t.Fatal("machine mismatch")
	}
	for r := 0; r < 6; r++ {
		ep := d.Endpoint(r)
		if ep.Rank() != r || ep.Node() != r/3 {
			t.Fatalf("endpoint %d: rank=%d node=%d", r, ep.Rank(), ep.Node())
		}
		if !ep.interrupts {
			t.Fatalf("endpoint %d: interrupts should start enabled", r)
		}
	}
}

func ExampleEndpoint_PutZero() {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 1))
	d := NewDomain(m)
	c := d.NewCounter(0)
	env.Spawn("sender", func(p *sim.Proc) {
		d.Endpoint(0).PutZero(p, d.Endpoint(1), c)
	})
	env.Spawn("receiver", func(p *sim.Proc) {
		d.Endpoint(1).Waitcntr(p, c, 1)
		fmt.Println("notified")
	})
	if err := env.Run(); err != nil {
		fmt.Println(err)
	}
	// Output: notified
}

func TestRmwFetchAndAdd(t *testing.T) {
	env, _, d := twoNodes(1)
	w := d.Endpoint(1).NewWord(10)
	var prev int64
	env.Spawn("origin", func(p *sim.Proc) {
		prev = d.Endpoint(0).Rmw(p, w, FetchAndAdd, 5, 0)
	})
	env.Spawn("owner", func(p *sim.Proc) {
		c := d.NewCounter(0)
		d.Endpoint(1).Waitcntr(p, c, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if prev != 10 || w.val != 15 {
		t.Fatalf("fetch-and-add: prev=%d val=%d", prev, w.val)
	}
}

func TestRmwSwapAndCAS(t *testing.T) {
	env, _, d := twoNodes(1)
	w := d.Endpoint(1).NewWord(1)
	env.Spawn("origin", func(p *sim.Proc) {
		ep := d.Endpoint(0)
		if prev := ep.Rmw(p, w, Swap, 7, 0); prev != 1 {
			t.Errorf("swap prev = %d", prev)
		}
		if prev := ep.Rmw(p, w, CompareAndSwap, 9, 7); prev != 7 || w.val != 9 {
			t.Errorf("cas hit: prev=%d val=%d", prev, w.val)
		}
		if prev := ep.Rmw(p, w, CompareAndSwap, 0, 7); prev != 9 || w.val != 9 {
			t.Errorf("cas miss: prev=%d val=%d", prev, w.val)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRmwLoopbackLocal(t *testing.T) {
	env, m, d := twoNodes(2)
	w := d.Endpoint(0).NewWord(0)
	env.Spawn("peer", func(p *sim.Proc) {
		d.Endpoint(1).Rmw(p, w, FetchAndAdd, 3, 0) // same node: no wire traffic
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if w.val != 3 {
		t.Fatalf("loopback rmw value = %d", w.val)
	}
	if m.Stats.Puts != 0 && m.Stats.Gets != 0 {
		t.Fatal("loopback rmw should not touch the network")
	}
}

// Property: concurrent fetch-and-adds from many origins always sum exactly
// and every origin sees a distinct previous value (atomicity).
func TestPropRmwAtomicity(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%6 + 2
		env := sim.NewEnv()
		m := machine.New(env, machine.ColonySP(n, 1))
		d := NewDomain(m)
		w := d.Endpoint(0).NewWord(0)
		prevs := make([]int64, n-1)
		for r := 1; r < n; r++ {
			r := r
			env.Spawn(fmt.Sprintf("o%d", r), func(p *sim.Proc) {
				prevs[r-1] = d.Endpoint(r).Rmw(p, w, FetchAndAdd, 1, 0)
			})
		}
		env.Spawn("owner", func(p *sim.Proc) {
			c := d.NewCounter(0)
			d.Endpoint(0).Waitcntr(p, c, 0) // park so the dispatcher polls
		})
		if env.Run() != nil {
			return false
		}
		if w.val != int64(n-1) {
			return false
		}
		seen := make(map[int64]bool)
		for _, v := range prevs {
			if v < 0 || v >= int64(n-1) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
