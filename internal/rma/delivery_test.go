package rma

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"srmcoll/internal/check"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// The life of a put's frame on the fault-free wire (putRemote): taken at
// injection, idle again only once its landing has run, a dead target has
// refused it or MarkDead has discarded it; and how its bytes move.

// idleFrames counts the domain's idle delivery frames.
func idleFrames(d *Domain) int {
	_, idle := d.deliveries.Count()
	return idle
}

// TestDeferredPutsEachLandTheirOwn defers two puts at an interrupts-off
// endpoint. Both are parked in its pending list when SetInterrupts(true)
// releases them: each must land its own payload and bump its own counter, so
// the first frame cannot have gone back to the idle list — and been refilled by
// the second put — before its landing ran.
func TestDeferredPutsEachLandTheirOwn(t *testing.T) {
	env, m, d := twoNodes(1)
	srcA, srcB := []byte("first payload"), []byte("the second one")
	dstA, dstB := make([]byte, len(srcA)), make([]byte, len(srcB))
	tgtA, tgtB := d.NewCounter(0), d.NewCounter(0)
	d.Endpoint(1).SetInterrupts(false)
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dstA, srcA, nil, tgtA, nil)
		d.Endpoint(0).Put(p, d.Endpoint(1), dstB, srcB, nil, tgtB, nil)
	})
	env.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(300) // both have arrived and are deferred
		if got := pendingCount(d.Endpoint(1)); got != 2 {
			t.Errorf("%d deliveries pending, want 2", got)
		}
		if tgtA.val != 0 || tgtB.val != 0 || idleFrames(d) != 0 {
			t.Errorf("before the release: counters %d %d, %d idle frames; want 0 0 0",
				tgtA.val, tgtB.val, idleFrames(d))
		}
		d.Endpoint(1).SetInterrupts(true)
		p.Sleep(300)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dstA, srcA) || !bytes.Equal(dstB, srcB) {
		t.Errorf("payloads landed as %q and %q", dstA, dstB)
	}
	if tgtA.val != 1 || tgtB.val != 1 {
		t.Errorf("counters %d and %d, want 1 and 1", tgtA.val, tgtB.val)
	}
	if m.Stats.Deferrals != 2 || m.Stats.Interrupts != 2 {
		t.Errorf("deferrals=%d interrupts=%d, want 2 and 2", m.Stats.Deferrals, m.Stats.Interrupts)
	}
	if got := idleFrames(d); got != 2 {
		t.Errorf("%d idle frames after both landings, want 2", got)
	}
}

// TestFramesAreReused: puts that follow one another need one frame between
// them, however many there are.
func TestFramesAreReused(t *testing.T) {
	env, _, d := twoNodes(1)
	tgt := d.NewCounter(0)
	dst := make([]byte, 8)
	env.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			d.Endpoint(1).Waitcntr(p, tgt, 1)
			if want := bytes.Repeat([]byte{byte(i)}, 8); !bytes.Equal(dst, want) {
				t.Errorf("put %d landed %v", i, dst)
			}
		}
	})
	env.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			d.Endpoint(0).Put(p, d.Endpoint(1), dst, bytes.Repeat([]byte{byte(i)}, 8), nil, tgt, nil)
			p.Sleep(100)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := idleFrames(d); got != 1 {
		t.Errorf("%d frames for 20 puts in sequence, want 1", got)
	}
}

// TestDeadTargetNeverLands covers the two ways a put meets a dead target. One
// that arrives after the target was marked dead is refused at the adapter: it
// counts one DeadDrops and its frame is idle at once. One already deferred in
// the pending list when the target is marked dead is discarded with the list
// (no statistic counts it; the domain's ledger does) and its frame is idle at
// once too: neither ever lands, both snapshots are back in the pool, and the
// domain goes on delivering to the living with the frames it has.
func TestDeadTargetNeverLands(t *testing.T) {
	env, m, d := twoNodes(2) // ranks 0,1 on node 0; 2,3 on node 1
	d.AllowDeaths()
	src := []byte{1, 2, 3, 4}
	dstDeferred, dstLate, dstAlive := make([]byte, 4), make([]byte, 4), make([]byte, 4)
	cDeferred, cLate, cAlive := d.NewCounter(0), d.NewCounter(0), d.NewCounter(0)
	d.Endpoint(2).SetInterrupts(false)
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(2), dstDeferred, src, nil, cDeferred, nil)
		p.Sleep(300) // arrived and deferred
		if pendingCount(d.Endpoint(2)) != 1 {
			t.Errorf("%d deliveries pending at rank 2, want 1", pendingCount(d.Endpoint(2)))
		}
		d.Endpoint(0).Put(p, d.Endpoint(2), dstLate, src, nil, cLate, nil)
		d.MarkDead(2) // the second put is on the wire, the first in the pending list
		p.Sleep(300)
		if m.Stats.DeadDrops != 1 {
			t.Errorf("DeadDrops = %d after the late put arrived, want 1", m.Stats.DeadDrops)
		}
		if got := idleFrames(d); got != 2 {
			t.Errorf("%d idle frames, want the refused put's and the discarded one's", got)
		}
		if ty := d.Tally(); ty.Discarded != 1 || ty.Snapshots != 0 || m.Buffers.Outstanding() != 0 {
			t.Errorf("ledger %+v with %d buffers out of the pool, want 1 discarded and no snapshot out", ty, m.Buffers.Outstanding())
		}
		d.Endpoint(0).Put(p, d.Endpoint(3), dstAlive, src, nil, cAlive, nil)
		p.Sleep(300)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if cDeferred.val != 0 || cLate.val != 0 || !bytes.Equal(dstDeferred, make([]byte, 4)) || !bytes.Equal(dstLate, make([]byte, 4)) {
		t.Errorf("a put landed at the dead rank: counters %d %d, memory %v %v",
			cDeferred.val, cLate.val, dstDeferred, dstLate)
	}
	if cAlive.val != 1 || !bytes.Equal(dstAlive, src) {
		t.Errorf("the put to the living rank: counter %d, memory %v", cAlive.val, dstAlive)
	}
	if m.Stats.DeadDrops != 1 {
		t.Errorf("DeadDrops = %d at the end, want 1", m.Stats.DeadDrops)
	}
}

// TestPutSpansUnchanged records the lifecycle spans of three puts, one through
// each delivery mode and each acknowledged to a completion counter, and holds
// them to what the closures the frame replaced recorded (400607f).
func TestPutSpansUnchanged(t *testing.T) {
	env, _, d := twoNodes(1)
	env.Trace = trace.New(env.Now)
	src, dst := make([]byte, 1024), make([]byte, 1024)
	tgt, compl := d.NewCounter(0), d.NewCounter(0)
	env.Spawn("send", func(p *sim.Proc) {
		p.SetTrack(0)
		from, to := d.Endpoint(0), d.Endpoint(1)
		from.Put(p, to, dst, src, nil, tgt, compl) // the target polls
		from.Waitcntr(p, compl, 1)
		p.Sleep(100)
		from.Put(p, to, dst, src, nil, tgt, compl) // the target computes: interrupt
		from.Waitcntr(p, compl, 1)
		p.Sleep(100)
		to.SetInterrupts(false)
		from.Put(p, to, dst, src, nil, tgt, compl) // deferred to the next RMA call
		from.Waitcntr(p, compl, 1)
	})
	env.Spawn("recv", func(p *sim.Proc) {
		p.SetTrack(1)
		to := d.Endpoint(1)
		to.Waitcntr(p, tgt, 1)
		p.Sleep(200)
		if tgt.val != 1 {
			t.Errorf("the second put has not landed by interrupt: counter %d", tgt.val)
		}
		p.Sleep(200)
		to.Waitcntr(p, tgt, 2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range env.Trace.Spans() {
		if strings.HasPrefix(s.Name, "put:") {
			got = append(got, fmt.Sprintf("%s g%d %dB %.3f-%.3f", s.Name, s.Group, s.Bytes, s.Begin, s.End))
		}
	}
	want := []string{
		"put:inject g0 1024B 3.600-7.170",
		"put:wire g0 1024B 7.170-15.670",
		"put:deliver:poll g0 0B 15.670-18.870",
		"put:ack g0 0B 18.870-27.370",
		"put:inject g1 1024B 130.970-134.539",
		"put:wire g1 1024B 134.539-143.039",
		"put:deliver:interrupt g1 0B 143.039-167.039",
		"put:ack g1 0B 167.039-175.539",
		"put:inject g2 1024B 279.139-282.709",
		"put:wire g2 1024B 282.709-291.209",
		"put:deliver:deferred g2 0B 291.209-422.070",
		"put:ack g2 0B 422.070-430.570",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("put spans:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCleanWirePutMovesOnce: on the clean wire a put's bytes go from src to dst
// at issue, through no snapshot, so the pool is never drawn on and the ledger
// counts no snapshot while the put is in flight; an origin that overwrites src
// as soon as PutT's continuation runs still lands what it put. Under a fault
// injector, in reliable mode and where ranks can die the put keeps its
// snapshot, and the same holds.
func TestCleanWirePutMovesOnce(t *testing.T) {
	for _, c := range []struct {
		name      string
		setup     func(*machine.Machine, *Domain)
		snapshots int
	}{
		{"clean", func(*machine.Machine, *Domain) {}, 0},
		{"injector", func(m *machine.Machine, _ *Domain) { m.Faults = fault.New(fault.Plan{Seed: 1}) }, 1},
		{"reliable", func(_ *machine.Machine, d *Domain) { d.EnableReliable(0, 0) }, 1},
		{"mortal", func(_ *machine.Machine, d *Domain) { d.AllowDeaths() }, 1},
	} {
		env, m, d := twoNodes(1)
		c.setup(m, d)
		src := []byte("the bytes as they were put")
		want := bytes.Clone(src)
		dst := make([]byte, len(src))
		tgt := d.NewCounter(0)
		var inFlight Tally
		env.SpawnTask("send", -1, func(tk *sim.Task) {
			d.Endpoint(0).PutT(tk, d.Endpoint(1), dst, src, nil, tgt, nil, func() {
				inFlight = d.Tally()
				copy(src, bytes.Repeat([]byte{'x'}, len(src)))
			})
		})
		env.Spawn("recv", func(p *sim.Proc) { d.Endpoint(1).Waitcntr(p, tgt, 1) })
		if err := env.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(dst, want) {
			t.Errorf("%s: landed %q, want %q", c.name, dst, want)
		}
		gets, _ := m.Buffers.Stats()
		if inFlight.Unresolved != 1 || inFlight.Snapshots != c.snapshots || int(gets) != c.snapshots {
			t.Errorf("%s: in flight the ledger read %+v with %d buffers drawn, want %d snapshots", c.name, inFlight, gets, c.snapshots)
		}
		if ty := d.Tally(); ty.Landed != 1 || ty.Snapshots != 0 || m.Buffers.Outstanding() != 0 {
			t.Errorf("%s: after the landing the ledger read %+v with %d buffers out", c.name, ty, m.Buffers.Outstanding())
		}
	}
}

// TestPutWindowCheck: under CheckWindows a clean-wire put fills its window with
// poison at issue. A target that writes the window while the put is in flight
// is reported when the put lands, with origin, target, bytes, the first byte
// written and both times; one that reads it early reads poison; one that waits
// for its counter reads the payload.
func TestPutWindowCheck(t *testing.T) {
	CheckWindows(true)
	defer CheckWindows(false)
	src := []byte("sixteen bytes!!!")
	run := func(target func(p *sim.Proc, ep *Endpoint, dst []byte, tgt *Counter)) (m *machine.Machine, report any) {
		env, m, d := twoNodes(1)
		dst := make([]byte, len(src))
		tgt := d.NewCounter(0)
		env.Spawn("send", func(p *sim.Proc) { d.Endpoint(0).Put(p, d.Endpoint(1), dst, src, nil, tgt, nil) })
		env.Spawn("recv", func(p *sim.Proc) { target(p, d.Endpoint(1), dst, tgt) })
		defer func() { report = recover() }() // the landing runs in a callback of the event loop
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return m, nil
	}

	m, report := run(func(p *sim.Proc, _ *Endpoint, dst []byte, _ *Counter) {
		p.Sleep(10) // the put is on the wire
		dst[5] = 0
	})
	we, ok := report.(*check.WindowError)
	if !ok {
		t.Fatalf("a write into the window in flight reported %v, want a *check.WindowError", report)
	}
	if we.Origin != 0 || we.Target != 1 || we.Bytes != len(src) || we.First != 5 || we.Issued != m.Cfg.SendOverhead || we.Landed <= 10 {
		t.Errorf("reported %+v", *we)
	}
	if msg := we.Error(); !strings.Contains(msg, "from rank 0 to rank 1") {
		t.Errorf("the report does not name origin and target: %s", msg)
	}

	var early, late []byte
	_, report = run(func(p *sim.Proc, ep *Endpoint, dst []byte, tgt *Counter) {
		p.Sleep(10)
		early = bytes.Clone(dst)
		ep.Waitcntr(p, tgt, 1)
		late = bytes.Clone(dst)
	})
	if report != nil || !bytes.Equal(early, bytes.Repeat([]byte{windowPoison}, len(src))) || !bytes.Equal(late, src) {
		t.Errorf("an early read saw %q and a read after the counter %q (report %v), want poison, then the payload", early, late, report)
	}
}

// TestMarkDeadNeedsAllowDeaths: a domain decides at its first put whether the
// bytes can move at issue, which a MarkDead discarding a landing would betray;
// so a rank can be marked dead only on a domain told beforehand.
func TestMarkDeadNeedsAllowDeaths(t *testing.T) {
	env, _, d := twoNodes(1)
	func() {
		defer func() {
			r := recover()
			if de, ok := r.(*check.DeathError); !ok || de.Rank != 1 {
				t.Errorf("MarkDead on a domain not told ranks can die panicked with %v, want a *check.DeathError for rank 1", r)
			}
		}()
		d.MarkDead(1)
	}()
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), make([]byte, 8), make([]byte, 8), nil, nil, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AllowDeaths after a clean-wire put did not panic")
		}
	}()
	d.AllowDeaths()
}

// pendingCount returns the length of the endpoint's pending list.
func pendingCount(ep *Endpoint) int {
	n := 0
	for p := ep.pending; p != nil; p = p.Next() {
		n++
	}
	return n
}
