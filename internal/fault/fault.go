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
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"srmcoll/internal/sim"
)

// Plan describes the faults to inject into one run. The zero value injects
// nothing and leaves every protocol on its default (unreliable,
// exactly-the-paper) path. Probabilities are in [0, 1]; times are finite,
// non-negative simulated microseconds (Validate holds a plan to both).
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

// Validate reports a plan error, if any, against a cluster of tasks tasks on
// nodes nodes: a probability outside [0, 1], a time that is negative or not
// finite, a window that ends before it starts, a stall factor below 1, or a
// rank or node the cluster does not have.
func (p Plan) Validate(tasks, nodes int) error {
	for _, f := range [...]field{{"Drop", p.Drop, false}, {"Dup", p.Dup, false}, {"Delay", p.Delay, false},
		{"AckDrop", p.AckDrop, false}, {"DelayMax", p.DelayMax, true}, {"Deadline", p.Deadline, true},
		{"AckTimeout", p.AckTimeout, true}, {"BackoffCap", p.BackoffCap, true}} {
		if why := f.fault(); why != "" {
			return fmt.Errorf("fault: %s = %g, %s", f.name, f.v, why)
		}
	}
	for i, c := range p.Channels {
		if c.Src < -1 || c.Src >= tasks || c.Dst < -1 || c.Dst >= tasks {
			return fmt.Errorf("fault: Channels[%d] ranks (%d, %d) out of range [-1, %d)", i, c.Src, c.Dst, tasks)
		}
		for _, f := range [...]field{{"Drop", c.Drop, false}, {"Dup", c.Dup, false}, {"Delay", c.Delay, false}, {"DelayMax", c.DelayMax, true}} {
			if why := f.fault(); why != "" {
				return fmt.Errorf("fault: Channels[%d].%s = %g, %s", i, f.name, f.v, why)
			}
		}
	}
	for i, s := range p.Storms {
		if s.Node < 0 || s.Node >= nodes {
			return fmt.Errorf("fault: Storms[%d].Node = %d, want [0, %d)", i, s.Node, nodes)
		}
		if why := windowFault(s.From, s.Until); why != "" {
			return fmt.Errorf("fault: Storms[%d] window [%g, %g) %s", i, s.From, s.Until, why)
		}
		if why := timeFault(s.Extra); why != "" {
			return fmt.Errorf("fault: Storms[%d].Extra = %g, %s", i, s.Extra, why)
		}
	}
	crashed := make(map[int]int, len(p.Crashes))
	for i, c := range p.Crashes {
		if c.Rank < 0 || c.Rank >= tasks {
			return fmt.Errorf("fault: Crashes[%d].Rank = %d, want [0, %d)", i, c.Rank, tasks)
		}
		if why := timeFault(c.At); why != "" {
			return fmt.Errorf("fault: Crashes[%d].At = %g, %s", i, c.At, why)
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
		if why := windowFault(s.From, s.Until); why != "" {
			return fmt.Errorf("fault: Stalls[%d] window [%g, %g) %s", i, s.From, s.Until, why)
		}
		if !(s.Factor >= 1) {
			return fmt.Errorf("fault: Stalls[%d].Factor = %g, want >= 1", i, s.Factor)
		}
	}
	return nil
}

// field is a number of a plan that Validate checks: a probability, or a time.
type field struct {
	name string
	v    float64
	time bool
}

// fault says what is wrong with the field's value — a probability outside
// [0, 1], NaN included, or a time that is negative, NaN or infinite — and is
// "" when nothing is.
func (f field) fault() string {
	switch {
	case !f.time && !(f.v >= 0 && f.v <= 1):
		return "want [0, 1]"
	case f.time && math.IsInf(f.v, 1):
		return "want finite"
	case f.time && !(f.v >= 0):
		return "want >= 0"
	}
	return ""
}

// timeFault is field.fault for a time.
func timeFault(v sim.Time) string { return field{v: v, time: true}.fault() }

// windowFault says what is wrong with a window [from, until) — a bound that
// is not a finite time >= 0, or an end before its start — and is "" when
// nothing is.
func windowFault(from, until sim.Time) string {
	switch {
	case from < 0 || until < 0:
		return "has a negative bound"
	case timeFault(from) != "" || timeFault(until) != "":
		return "has a bound that is not a finite time"
	case until < from:
		return "ends before it starts"
	}
	return ""
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
	rng  Splitmix
	sum  Summary
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, rng: Splitmix{State: plan.Seed ^ 0x9e3779b97f4a7c15}}
}

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
	rDrop, rDup, rDelay, rAmt := in.rng.Float(), in.rng.Float(), in.rng.Float(), in.rng.Float()
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
	r := in.rng.Float()
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

// StallError reports a run that a plan's Deadline stopped with tasks still
// running: the watchdog report for runs that would otherwise hang (or
// retransmit) forever.
type StallError struct {
	Time    sim.Time          // virtual time the deadline stopped the run
	Blocked []sim.BlockedProc // parked processes and what they wait on
	Faults  Summary           // faults injected up to the stall
	Digest  uint64            // the event digest up to the stall (sim.Env.Digest)
}

// Stalled builds the report of env, stopped at its deadline, with the faults
// in (nil for none) delivered so far.
func Stalled(env *sim.Env, in *Injector) *StallError {
	e := &StallError{Time: env.Now(), Blocked: env.Blocked(), Digest: env.Digest()}
	if in != nil {
		e.Faults = in.Summary()
	}
	return e
}

func (e *StallError) Error() string {
	s := fmt.Sprintf("srmcoll: run stalled at deadline t=%.3f: %d blocked", e.Time, len(e.Blocked))
	if e.Faults != (Summary{}) {
		s += fmt.Sprintf(", faults %s", e.Faults)
	}
	for _, b := range e.Blocked {
		s += fmt.Sprintf("\n  %s: waiting on %s (blocked since t=%.3f)", b.Name, b.Waiting, b.Since)
	}
	return s
}

// ErrDeadline is the sentinel matched by errors.Is for every *StallError:
// the run was cut off by the plan's deadline, not by a protocol error of its
// own.
var ErrDeadline = errors.New("fault-plan deadline exceeded")

func (e *StallError) Unwrap() error { return ErrDeadline }

// Splitmix is a splitmix64 PRNG: tiny, fast, and stable across Go versions
// (unlike math/rand's unspecified stream), which keeps recorded runs
// replayable forever. The chaos campaign (internal/exp) draws its plans from
// it too.
type Splitmix struct{ State uint64 }

// Next returns the next 64 random bits.
func (r *Splitmix) Next() uint64 {
	r.State += 0x9e3779b97f4a7c15
	z := r.State
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float returns a uniform float64 in [0, 1).
func (r *Splitmix) Float() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}
