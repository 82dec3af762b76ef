package rma

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

// The reliable wire's duplicate suppression (channel.admit) and what a run
// keeps of it: the window against a per-number map, how much of either stays
// after a long run, and what a reliable put allocates.

// windowScript plays a script of arrivals on one reliable channel and holds
// every deliver-or-suppress decision of its window to a map of the numbers
// seen. Each byte is one step; its top two bits choose it:
//
//	0  the origin's next put arrives in order
//	1  the origin's next put is sent and held by the wire (a delay, a drop
//	   awaiting its retransmission)
//	2  a number sent before arrives: a held first arrival, a duplicate or a
//	   late retransmission, picked by the low bits
//	3  EnableReliable is called again, with timeouts from the low bits
func windowScript(t *testing.T, script []byte) {
	t.Helper()
	env := sim.NewEnv()
	d := NewDomain(machine.New(env, machine.ColonySP(2, 1)))
	d.EnableReliable(0, 0)
	c := d.Endpoint(0).channel(1)
	seen := make(map[int]bool)
	arrive := func(step, seq int) {
		got, want := c.admit(seq), !seen[seq]
		seen[seq] = true
		if got != want {
			t.Fatalf("step %d: number %d admitted = %v, the map says %v (low %d, ahead %v)", step, seq, got, want, c.low, c.ahead)
		}
		if !slices.IsSorted(c.ahead) || len(c.ahead) > 0 && c.ahead[0] <= c.low {
			t.Fatalf("step %d: window low %d, ahead %v: want ascending numbers above the first hole", step, c.low, c.ahead)
		}
	}
	for step, b := range script {
		switch low := int(b & 63); b >> 6 {
		case 0:
			arrive(step, c.next)
			c.next++
		case 1:
			c.next++
		case 2:
			if c.next > 0 {
				// Mostly recent numbers, as on a wire; now and then any.
				back := low % min(c.next, 8)
				if low >= 56 {
					back = low * 37 % c.next
				}
				arrive(step, c.next-1-back)
			}
		case 3:
			d.EnableReliable(sim.Time(low), sim.Time(4*low))
			if d.Endpoint(0).channel(1) != c {
				t.Fatalf("step %d: EnableReliable replaced the channel's record", step)
			}
		}
	}
	// Everything sent arrives in the end, oldest first: the window closes.
	for seq := 0; seq < c.next; seq++ {
		arrive(len(script), seq)
	}
	if c.low != c.next || len(c.ahead) != 0 {
		t.Fatalf("after every number arrived: low %d of %d, ahead %v", c.low, c.next, c.ahead)
	}
}

func FuzzChannelWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0x81, 0})                         // in order, then duplicates
	f.Add([]byte{0x40, 0, 0, 0x82, 0x82, 0xC5, 0x82, 0})          // a hole filled late, re-enabled between
	f.Add([]byte{0x40, 0x40, 0x40, 0x80, 0x82, 0x81, 0x81, 0xB9}) // held numbers arriving in reverse
	f.Fuzz(windowScript)
}

// TestChannelWindow is the seeded share of FuzzChannelWindow that every test
// run plays: scripts with the mix of a lossy wire, and one of each extreme.
func TestChannelWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for k := 0; k < 300; k++ {
		script := make([]byte, 50+rng.Intn(400))
		for i := range script {
			kind := [...]byte{0, 0, 0, 0, 1, 2, 2, 2, 2, 3}[rng.Intn(10)]
			if k%3 == 0 { // a wire that holds and replays most of what it is given
				kind = [...]byte{0, 1, 1, 2, 2, 2, 2, 2, 2, 3}[rng.Intn(10)]
			}
			script[i] = kind<<6 | byte(rng.Intn(64))
		}
		windowScript(t, script)
	}
	held := make([]byte, 200)
	for i := range held {
		held[i] = 0x40
	}
	windowScript(t, held) // nothing arrives before the end
}

// roundTrips is the per-layer benchmark's put shape as a body that allocates
// nothing of its own: a size-byte put from rank 0 to rank 1, answered by a
// zero-byte one, n times. With counters set, the data put also fires an origin
// and a completion counter, and the origin waits for the completion.
type roundTrips struct {
	t                      *sim.Task
	from, to               *Endpoint
	dst, src               []byte
	origin, landed, compl  *Counter
	acked                  *Counter
	left                   int
	putFn, waitFn, checkFn func()
}

func (rt *roundTrips) put() {
	if rt.left == 0 {
		return
	}
	rt.left--
	rt.from.PutT(rt.t, rt.to, rt.dst, rt.src, rt.origin, rt.landed, rt.compl, rt.waitFn)
}

func (rt *roundTrips) wait() {
	if rt.compl != nil {
		rt.from.WaitcntrT(rt.t, rt.compl, 1, rt.checkFn)
		return
	}
	rt.check()
}

func (rt *roundTrips) check() { rt.from.WaitcntrT(rt.t, rt.acked, 1, rt.putFn) }

// answer is the target's side of roundTrips.
type answer struct {
	t              *sim.Task
	at, back       *Endpoint
	landed, acked  *Counter
	left           int
	waitFn, sendFn func()
}

func (a *answer) wait() {
	if a.left == 0 {
		return
	}
	a.left--
	a.at.WaitcntrT(a.t, a.landed, 1, a.sendFn)
}

func (a *answer) send() { a.at.PutZeroT(a.t, a.back, a.acked, a.waitFn) }

// spawnRoundTrips sets n round trips up on a fresh two-node machine under plan.
func spawnRoundTrips(n int, plan fault.Plan, tasks, counters bool) (*sim.Env, *machine.Machine, *Domain) {
	env, m, d := faultyPair(plan)
	e0, e1 := d.Endpoint(0), d.Endpoint(1)
	landed, acked := d.NewCounter(0), d.NewCounter(0)
	var origin, compl *Counter
	if counters {
		origin, compl = d.NewCounter(0), d.NewCounter(0)
	}
	src, dst := make([]byte, 1<<10), make([]byte, 1<<10)
	if !tasks {
		env.Spawn("origin", func(p *sim.Proc) {
			for k := 0; k < n; k++ {
				e0.Put(p, e1, dst, src, origin, landed, compl)
				if compl != nil {
					e0.Waitcntr(p, compl, 1)
				}
				e0.Waitcntr(p, acked, 1)
			}
		})
		env.Spawn("target", func(p *sim.Proc) {
			for k := 0; k < n; k++ {
				e1.Waitcntr(p, landed, 1)
				e1.PutZero(p, e0, acked)
			}
		})
		return env, m, d
	}
	rt := &roundTrips{from: e0, to: e1, dst: dst, src: src, origin: origin, landed: landed, compl: compl, acked: acked, left: n}
	rt.putFn, rt.waitFn, rt.checkFn = rt.put, rt.wait, rt.check
	an := &answer{at: e1, back: e0, landed: landed, acked: acked, left: n}
	an.waitFn, an.sendFn = an.wait, an.send
	env.SpawnTask("origin", -1, func(t *sim.Task) { rt.t = t; rt.put() })
	env.SpawnTask("target", -1, func(t *sim.Task) { an.t = t; an.wait() })
	return env, m, d
}

// TestDedupStateIsBounded: what reliable delivery remembers is as large as what
// the wire holds, not as the run is long. After 100,000 puts each way over one
// channel that drops, duplicates, delays and loses acks, the windows are closed
// prefixes, and the run never had more frames than it has puts younger than a
// backed-off ack timeout — as many after 100,000 round trips as after 10,000.
func TestDedupStateIsBounded(t *testing.T) {
	plan := fault.Plan{Seed: 3, Drop: 0.05, Dup: 0.05, Delay: 0.2, DelayMax: 30, AckDrop: 0.05, Reliable: true}
	frames := func(n int) int {
		env, m, d := spawnRoundTrips(n, plan, true, false)
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			c := d.Endpoint(r).channel(1 - r)
			if c.next != n || c.low != n || len(c.ahead) != 0 || cap(c.ahead) > 16 {
				t.Errorf("%d puts from rank %d: window low %d, %d numbers ahead (room for %d)", n, r, c.low, len(c.ahead), cap(c.ahead))
			}
			if c.link != nil {
				t.Errorf("rank %d has more than one channel", r)
			}
		}
		ty := d.Tally()
		if m.Stats.Retries == 0 || m.Stats.DupsSuppressed == 0 {
			t.Fatalf("the wire was not lossy: %+v", m.Stats)
		}
		if ty.Puts != 2*n || ty.Idle != ty.Frames || ty.Snapshots != 0 || ty.Unresolved != 0 {
			t.Errorf("%d round trips left the ledger at %+v", n, ty)
		}
		return ty.Frames
	}
	short, long := frames(10_000), frames(100_000)
	t.Logf("%d frames for 10,000 round trips, %d for 100,000", short, long)
	if long > short+4 || long > 64 {
		t.Errorf("%d frames for 100,000 round trips, %d for 10,000: frames grow with the run", long, short)
	}
}

// TestReliablePutAllocs: a reliable put allocates nothing once the domain has
// the frames its traffic needs — no closure per put, attempt or arrival, no map
// entry per sequence number — from a process and from a task body, with and
// without origin and completion counters, on a clean wire and on a lossy one
// (where a retransmission must cost nothing either). Measured as the
// difference between 2n and n round trips of two puts each. The closure nest
// this replaced allocated 7.0 objects per put on the first shape.
func TestReliablePutAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector slows the allocation guards; CI runs them without it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 2000
	mallocs := func(n int, plan fault.Plan, tasks, counters bool) uint64 {
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			env, _, _ := spawnRoundTrips(n, plan, tasks, counters)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	clean := fault.Plan{Reliable: true}
	lossy := fault.Plan{Seed: 7, Drop: 0.05, Dup: 0.02, AckDrop: 0.02, Reliable: true}
	for _, c := range []struct {
		name            string
		plan            fault.Plan
		tasks, counters bool
		limit           float64
	}{
		{"procs", clean, false, false, 0},
		{"tasks", clean, true, false, 0},
		{"procs, origin and completion counters", clean, false, true, 0},
		{"tasks, origin and completion counters", clean, true, true, 0},
		// The two lengths do not retransmit at the same moments, so a frame or
		// a queue item more or less shows: none per put is what is held.
		{"procs, lossy", lossy, false, false, 0.02},
		{"tasks, lossy", lossy, true, false, 0.02},
	} {
		short, long := mallocs(n, c.plan, c.tasks, c.counters), mallocs(2*n, c.plan, c.tasks, c.counters)
		per := (float64(long) - float64(short)) / (2 * n)
		t.Logf("%s: %d objects for %d round trips, %d for %d: %.3f per put", c.name, short, n, long, 2*n, per)
		if per > c.limit {
			t.Errorf("%s: %.3f objects per reliable put, want at most %v", c.name, per, c.limit)
		}
	}
}
