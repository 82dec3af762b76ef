package trace

// This file adds the deterministic event-timeline side of the trace
// package: spans with begin/end stamps in virtual time, one track per
// simulated process, and async groups for in-flight network transactions.
// Spans are recorded by hooks in internal/sim, internal/machine,
// internal/rma, internal/shm and internal/core; because the simulator is
// single-threaded and stamps come from the virtual clock, the recorded
// span list is bit-identical across host schedules and sweep worker
// counts. Every recording method is safe to call on a nil *Trace and does
// nothing there, so the disabled path costs no allocations.

import (
	"fmt"
	"sort"
	"strings"
)

// Class is the segment taxonomy of a span; the critical-path report
// attributes elapsed time to these classes. See DESIGN.md §10.
type Class uint8

const (
	ClassOp         Class = iota // collective operation root span (one per rank per call)
	ClassShmCopy                 // charged shared-memory copy (user<->shm, shm<->shm)
	ClassSmp                     // SMP broadcast publish/consume phase (Figure 3)
	ClassChunkSlot               // pipeline chunk occupying a shared receive slot (Figure 4)
	ClassPutInject               // put lifecycle: adapter port queue + injection
	ClassPutWire                 // put lifecycle: wire flight (includes injected delay)
	ClassPutDeliver              // put lifecycle: delivery at the target (poll/interrupt/deferred)
	ClassPutAck                  // put lifecycle: completion ack flight back to the origin
	ClassWaitArrive              // blocked on a data-arrival counter (wire latency exposure)
	ClassWaitAck                 // blocked on a completion/ack counter (ack wait)
	ClassWaitCredit              // blocked on a buffer-free credit counter (pipeline stall)
	ClassWaitCntr                // blocked on an unclassified RMA counter
	ClassWaitFlag                // blocked on a shared-memory flag
	ClassCPU                     // critical-path residue: charged CPU/overhead time
	ClassSkew                    // critical-path residue: late arrival into the operation
	ClassReqIssue                // non-blocking request issued (zero-width marker on the calling rank)
	ClassReqOp                   // non-blocking request executing on its helper track
	ClassReqWait                 // calling rank blocked in Request.Wait (exposed communication)
	ClassDetect                  // failure-detector latency: rank death until its declaration
	ClassAgree                   // rank blocked in fault-tolerant agreement
	ClassShrink                  // rank blocked in communicator shrink/repair
	numClasses
)

var classNames = [numClasses]string{
	"op", "shm:copy", "smp", "chunk:slot",
	"put:inject", "put:wire", "put:deliver", "put:ack",
	"wait:arrive", "wait:ack", "wait:credit", "wait:cntr", "wait:flag",
	"cpu", "skew",
	"req:issue", "req:op", "req:wait",
	"detect", "agree", "shrink",
}

// String returns the stable class label used in reports and exports.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Span is one timed segment of the simulation. Begin and End are virtual
// microseconds. Track identifies the simulated process timeline the span
// belongs to (ranks use their rank number); async network spans carry
// Track == -1 and share a Group id per transaction (one put's inject,
// wire, deliver and ack spans form one group).
type Span struct {
	ID     int
	Parent int // enclosing span id, -1 at top level
	Track  int // process track, or -1 for async network spans
	Group  int // async transaction group, -1 for scoped spans
	Class  Class
	Name   string
	Begin  float64
	End    float64 // -1 while still open
	Bytes  int64   // payload bytes, 0 when not applicable
}

// Dur returns the span duration (0 for still-open spans).
func (s Span) Dur() float64 {
	if s.End < s.Begin {
		return 0
	}
	return s.End - s.Begin
}

// Trace records spans against a virtual clock. Create one with New and
// attach it to a simulation environment (sim.Env.Trace); a nil *Trace is
// the disabled state and all methods are no-ops on it.
type Trace struct {
	// Label names the run in merged exports and reports.
	Label string

	now    func() float64
	spans  []Span
	stacks map[int][]int  // per track: stack of open scoped span ids
	tracks map[int]string // track id -> display name
	groups int
}

// New returns an empty trace stamping spans with the given clock
// (typically sim.Env.Now).
func New(now func() float64) *Trace {
	return &Trace{
		now:    now,
		stacks: make(map[int][]int),
		tracks: make(map[int]string),
	}
}

// Freeze stops the trace's clock at its current reading and lets go of it.
// The clock is a method of the simulation that was traced (sim.Env.Now), and
// a finished trace is read long after that simulation should be garbage: it
// keeps its spans, not its clock's owner.
func (t *Trace) Freeze() {
	if t == nil {
		return
	}
	at := t.now()
	t.now = func() float64 { return at }
}

// Enabled reports whether the trace records spans (false on nil).
func (t *Trace) Enabled() bool { return t != nil }

// Spans returns the recorded spans in record order. The slice is owned by
// the trace; callers must not modify it.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// NameTrack registers a display name for a track.
func (t *Trace) NameTrack(track int, name string) {
	if t == nil {
		return
	}
	t.tracks[track] = name
}

// TrackName returns the display name of a track ("track<N>" if unnamed).
func (t *Trace) TrackName(track int) string {
	if t == nil {
		return ""
	}
	if n, ok := t.tracks[track]; ok {
		return n
	}
	return fmt.Sprintf("track%d", track)
}

// NewGroup allocates an async transaction group id.
func (t *Trace) NewGroup() int {
	if t == nil {
		return -1
	}
	t.groups++
	return t.groups - 1
}

// Current returns the innermost open scoped span on a track, -1 if none.
func (t *Trace) Current(track int) int {
	if t == nil {
		return -1
	}
	if st := t.stacks[track]; len(st) > 0 {
		return st[len(st)-1]
	}
	return -1
}

// Begin opens a scoped span on a track at the current virtual time,
// nested under the track's innermost open span. It returns the span id to
// pass to End. Spans from untracked processes (track < 0) are dropped.
func (t *Trace) Begin(track int, cl Class, name string, bytes int64) int {
	if t == nil || track < 0 {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: t.Current(track), Track: track, Group: -1,
		Class: cl, Name: name, Begin: t.now(), End: -1, Bytes: bytes,
	})
	t.stacks[track] = append(t.stacks[track], id)
	return id
}

// End closes a scoped span at the current virtual time. End tolerates
// id == -1 (span was dropped or tracing is off) and out-of-order ends
// (it pops the track stack down to the span).
func (t *Trace) End(id int) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	sp.End = t.now()
	st := t.stacks[sp.Track]
	for len(st) > 0 {
		top := st[len(st)-1]
		st = st[:len(st)-1]
		if top == id {
			break
		}
	}
	t.stacks[sp.Track] = st
}

// Link tags a scoped span with an async group id, tying it to the other
// segments of one logical transaction. The request spans of a non-blocking
// collective (issue marker, helper-track op, Wait) share one group so the
// overlap report can reassemble each request's lifetime. No-op for dropped
// spans (id < 0) and unallocated groups (group < 0).
func (t *Trace) Link(id, group int) {
	if t == nil || id < 0 || group < 0 {
		return
	}
	t.spans[id].Group = group
}

// Add records a fully specified span: an async segment whose begin and
// end are already known (network injection, wire flight, acks). group
// links the segments of one transaction; parent attaches the segment to
// the scoped span that issued it.
func (t *Trace) Add(group, parent int, cl Class, name string, bytes int64, begin, end float64) int {
	if t == nil {
		return -1
	}
	if end < begin {
		end = begin
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Track: -1, Group: group,
		Class: cl, Name: name, Begin: begin, End: end, Bytes: bytes,
	})
	return id
}

// closeOpen clamps still-open spans to the given time (used by exports on
// traces from runs that ended with processes blocked).
func (t *Trace) closeOpen() {
	if t == nil {
		return
	}
	for i := range t.spans {
		if t.spans[i].End < t.spans[i].Begin {
			t.spans[i].End = t.spans[i].Begin
		}
	}
}

// TimelineText renders the spans as an indented, deterministic timeline
// table, sorted by begin time (ties: track, then record order). Golden
// tests pin this rendering for small runs.
func (t *Trace) TimelineText() string {
	if t == nil || len(t.spans) == 0 {
		return "(no spans)\n"
	}
	t.closeOpen()
	depth := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
	}
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := t.spans[order[a]], t.spans[order[b]]
		if sa.Begin != sb.Begin {
			return sa.Begin < sb.Begin
		}
		if sa.Track != sb.Track {
			return sa.Track < sb.Track
		}
		return sa.ID < sb.ID
	})
	var b strings.Builder
	for _, i := range order {
		s := t.spans[i]
		lane := t.TrackName(s.Track)
		if s.Track < 0 {
			lane = fmt.Sprintf("net/g%d", s.Group)
		}
		fmt.Fprintf(&b, "%10.3f %10.3f  %-14s %s%s", s.Begin, s.End, lane,
			strings.Repeat("  ", depth[i]), s.Name)
		if s.Bytes > 0 {
			fmt.Fprintf(&b, " %dB", s.Bytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
