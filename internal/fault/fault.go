// Package fault implements seeded, fully deterministic fault injection for
// the simulator. A Plan describes what should go wrong during a run —
// wire-level put faults (drop, duplicate, delay) per communication channel,
// interrupt storms on nodes, per-task stall (slowdown) windows, and
// scheduled task crashes — and an Injector built from the plan makes every
// individual decision from an explicit PRNG seed, so a faulty run replays
// bit-identically given the same seed and plan.
//
// The injector hooks two layers:
//
//   - internal/rma consults it on every inter-node put (and, in reliable
//     mode, on every ack) to decide the packet's fate;
//   - internal/machine consults it for interrupt-storm delivery penalties,
//     and the run harness (srmcoll.Run) schedules the plan's crashes and
//     stall windows against the simulated processes.
//
// A nil *Injector means "no faults": every hook treats nil as the fast
// path, so the default configuration costs nothing.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"srmcoll/internal/sim"
)

// Plan describes the faults to inject into one run. The zero value injects
// nothing and leaves every protocol on its default (unreliable,
// exactly-the-paper) path. Probabilities are in [0, 1]; times are simulated
// microseconds.
type Plan struct {
	// Seed drives every probabilistic decision. Two runs with the same
	// seed, plan, cluster and body are bit-identical.
	Seed uint64

	// Default wire-put fault rates, applied to every inter-node put
	// (including retransmissions in reliable mode). Intra-node puts go
	// through shared memory and are never faulted.
	Drop     float64  // P(data packet lost in the switch)
	Dup      float64  // P(data packet delivered twice)
	Delay    float64  // P(data packet delayed)
	DelayMax sim.Time // delayed packets arrive up to this much later

	// AckDrop is the loss probability of reliable-mode acknowledgements
	// (channel direction target -> origin). Lost acks force a retransmit
	// that the receiver then suppresses as a duplicate.
	AckDrop float64

	// Channels overrides the default rates for specific (src, dst) rank
	// pairs; the first matching entry wins.
	Channels []ChannelFault

	// Storms, Stalls and Crashes schedule machine- and task-level faults.
	Storms  []Storm
	Stalls  []Stall
	Crashes []Crash

	// Reliable switches internal/rma to reliable-delivery mode:
	// per-(src,dst) sequence numbers, ack-based retransmit with timeout
	// and bounded exponential backoff, and duplicate suppression. Without
	// it, dropped puts are lost forever and duplicated puts are delivered
	// twice — the protocols are on their own.
	Reliable bool

	// AckTimeout is the reliable-mode retransmit timeout for the first
	// attempt; 0 derives a default from the machine's network parameters.
	// The timeout doubles per retry up to BackoffCap (default 16x).
	AckTimeout sim.Time
	BackoffCap sim.Time

	// Deadline bounds the run in virtual time. When it passes with ranks
	// still running, the run stops and reports a stall (which processes
	// are blocked and on what) instead of spinning forever — the watchdog
	// for fault combinations no protocol can survive (e.g. Drop = 1).
	// 0 means no deadline.
	Deadline sim.Time
}

// ChannelFault overrides the wire-put fault rates for one directed channel.
// Src and Dst are global ranks; -1 matches any rank.
type ChannelFault struct {
	Src, Dst int
	Drop     float64
	Dup      float64
	Delay    float64
	DelayMax sim.Time
}

// matches reports whether the override applies to a put src -> dst.
func (c ChannelFault) matches(src, dst int) bool {
	return (c.Src == -1 || c.Src == src) && (c.Dst == -1 || c.Dst == dst)
}

// Storm models an interrupt storm on one node: during [From, Until) every
// RMA delivery into the node pays Extra additional latency, as if the
// service threads were fielding a flood of unrelated interrupts.
type Storm struct {
	Node        int
	From, Until sim.Time
	Extra       sim.Time
}

// Stall slows one task down: between From and Until, every charge to the
// task's virtual clock is stretched by Factor (>= 1). It models a task
// descheduled by the OS or sharing its CPU — the late-arrival scenarios of
// the paper's §4, made injectable.
type Stall struct {
	Rank        int
	From, Until sim.Time
	Factor      float64
}

// Crash kills one task at a scheduled time. The task's process panics with
// a sim.Crashed the next time it would run; the run harness recovers it
// into a structured error naming the rank.
type Crash struct {
	Rank int
	At   sim.Time
}

// Active reports whether the plan requests any deviation from the default
// simulation path (faults, reliable mode, or a deadline).
func (p Plan) Active() bool {
	return p.Drop > 0 || p.Dup > 0 || p.Delay > 0 || p.AckDrop > 0 ||
		len(p.Channels) > 0 || len(p.Storms) > 0 || len(p.Stalls) > 0 ||
		len(p.Crashes) > 0 || p.Reliable || p.Deadline > 0
}

// Validate reports a plan error, if any. p is the total task count of the
// cluster the plan will run against.
func (p Plan) Validate(tasks int) error {
	probs := []struct {
		name string
		v    float64
	}{
		{"Drop", p.Drop}, {"Dup", p.Dup}, {"Delay", p.Delay}, {"AckDrop", p.AckDrop},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s = %g, want [0, 1]", pr.name, pr.v)
		}
	}
	for i, c := range p.Channels {
		if c.Src < -1 || c.Src >= tasks || c.Dst < -1 || c.Dst >= tasks {
			return fmt.Errorf("fault: Channels[%d] ranks (%d, %d) out of range [-1, %d)", i, c.Src, c.Dst, tasks)
		}
	}
	crashed := make(map[int]int, len(p.Crashes))
	for i, c := range p.Crashes {
		if c.Rank < 0 || c.Rank >= tasks {
			return fmt.Errorf("fault: Crashes[%d].Rank = %d, want [0, %d)", i, c.Rank, tasks)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: Crashes[%d].At = %g, want >= 0", i, c.At)
		}
		if j, dup := crashed[c.Rank]; dup {
			return fmt.Errorf("fault: Crashes[%d] and Crashes[%d] both kill rank %d; a task crashes at most once", j, i, c.Rank)
		}
		crashed[c.Rank] = i
	}
	for i, s := range p.Stalls {
		if s.Rank < 0 || s.Rank >= tasks {
			return fmt.Errorf("fault: Stalls[%d].Rank = %d, want [0, %d)", i, s.Rank, tasks)
		}
		if s.From < 0 || s.Until < 0 {
			return fmt.Errorf("fault: Stalls[%d] window [%g, %g) has a negative bound", i, s.From, s.Until)
		}
		if s.Until < s.From {
			return fmt.Errorf("fault: Stalls[%d] window [%g, %g) ends before it starts", i, s.From, s.Until)
		}
		if s.Factor < 1 {
			return fmt.Errorf("fault: Stalls[%d].Factor = %g, want >= 1", i, s.Factor)
		}
	}
	return nil
}

// Verdict is the injector's decision for one wire transmission.
type Verdict struct {
	Drop  bool
	Dup   bool
	Delay sim.Time // extra latency before arrival (0 = on time)
}

// Injector makes the plan's probabilistic decisions. It is consumed in
// simulation order (the simulator is single-threaded), so decision k of a
// run is always backed by the same PRNG draws.
type Injector struct {
	plan Plan
	rng  splitmix
	sum  Summary
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, rng: splitmix{state: plan.Seed ^ 0x9e3779b97f4a7c15}}
}

// Plan returns the plan the injector was built from.
func (in *Injector) Plan() Plan { return in.plan }

// Duplicates reports whether the plan can deliver a put twice on some
// channel. Without reliable delivery the second copy lands whenever the wire
// gets to it, possibly after its receiver has moved on, so memory a put
// targets must not be reused while this holds. A nil injector never
// duplicates.
func (in *Injector) Duplicates() bool {
	if in == nil {
		return false
	}
	for _, c := range in.plan.Channels {
		if c.Dup > 0 {
			return true
		}
	}
	return in.plan.Dup > 0
}

// rates resolves the fault rates for a put src -> dst.
func (in *Injector) rates(src, dst int) (drop, dup, delay float64, delayMax sim.Time) {
	for _, c := range in.plan.Channels {
		if c.matches(src, dst) {
			return c.Drop, c.Dup, c.Delay, c.DelayMax
		}
	}
	return in.plan.Drop, in.plan.Dup, in.plan.Delay, in.plan.DelayMax
}

// Put decides the fate of one wire transmission of a put src -> dst. It
// always consumes a fixed number of PRNG draws so the decision stream stays
// aligned regardless of outcomes.
func (in *Injector) Put(src, dst int) Verdict {
	drop, dup, delay, delayMax := in.rates(src, dst)
	rDrop, rDup, rDelay, rAmt := in.rng.float(), in.rng.float(), in.rng.float(), in.rng.float()
	var v Verdict
	if rDrop < drop {
		v.Drop = true
		in.sum.PutDrops++
		return v
	}
	if rDup < dup {
		v.Dup = true
		in.sum.PutDups++
	}
	if rDelay < delay && delayMax > 0 {
		v.Delay = sim.Time(rAmt) * delayMax
		in.sum.PutDelays++
	}
	return v
}

// AckDrop decides whether a reliable-mode ack src -> dst is lost.
func (in *Injector) AckDrop(src, dst int) bool {
	r := in.rng.float()
	if r < in.plan.AckDrop {
		in.sum.AckDrops++
		return true
	}
	return false
}

// StormDelay returns the extra delivery latency on a node at the given
// virtual time, from any interrupt storms covering it.
func (in *Injector) StormDelay(node int, now sim.Time) sim.Time {
	var d sim.Time
	for _, s := range in.plan.Storms {
		if s.Node == node && now >= s.From && now < s.Until {
			d += s.Extra
		}
	}
	if d > 0 {
		in.sum.StormHits++
	}
	return d
}

// CountCrash records one executed crash in the summary.
func (in *Injector) CountCrash() { in.sum.Crashes++ }

// CountStall records one applied stall window in the summary.
func (in *Injector) CountStall() { in.sum.Stalls++ }

// Summary returns the running totals of injected faults.
func (in *Injector) Summary() Summary { return in.sum }

// Summary counts the faults an injector actually delivered during a run.
type Summary struct {
	PutDrops  int // data packets lost
	PutDups   int // data packets delivered twice
	PutDelays int // data packets delayed
	AckDrops  int // reliable-mode acks lost
	StormHits int // deliveries slowed by an interrupt storm
	Stalls    int // stall windows applied
	Crashes   int // tasks crashed
}

// String renders the non-zero counters in a stable order ("{}" when clean).
func (s Summary) String() string {
	type kv struct {
		k string
		v int
	}
	fields := []kv{
		{"ackDrops", s.AckDrops}, {"crashes", s.Crashes},
		{"putDelays", s.PutDelays}, {"putDrops", s.PutDrops},
		{"putDups", s.PutDups}, {"stalls", s.Stalls},
		{"stormHits", s.StormHits},
	}
	var parts []string
	for _, f := range fields {
		if f.v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.k, f.v))
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}

// splitmix is a splitmix64 PRNG: tiny, fast, and stable across Go versions
// (unlike math/rand's unspecified stream), which keeps recorded runs
// replayable forever.
type splitmix struct{ state uint64 }

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *splitmix) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
