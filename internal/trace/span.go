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
	"slices"
	"sort"
	"strconv"
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
	"wait:arrive", "wait:credit", "wait:cntr", "wait:flag",
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
	tracks []track // by track id; a run's tracks are numbered densely from 0
	groups int
}

// track is one timeline's state. Its open scoped spans are the Parent chain
// from top: Begin nests a span under the track's innermost open one and End
// pops a suffix, so the chain is the stack. Its name is formatted only when a
// report asks for it (TrackName).
type track struct {
	top    int    // innermost open scoped span, -1 if none
	prefix string // the name, or its prefix when num >= 0
	num    int32  // appended to prefix; -1: prefix alone
	named  bool
}

// New returns an empty trace stamping spans with the given clock
// (typically sim.Env.Now).
func New(now func() float64) *Trace {
	return &Trace{now: now}
}

// Reserve makes room for n spans in all, so a run that records about as many
// as one before it grows its span list once instead of by doubling.
func (t *Trace) Reserve(n int) {
	if t == nil || n <= cap(t.spans) {
		return
	}
	t.spans = slices.Grow(t.spans, n-len(t.spans))
}

// track returns the state of track id (>= 0), adding the tracks up to it.
func (t *Trace) track(id int) *track {
	for len(t.tracks) <= id {
		t.tracks = append(t.tracks, track{top: -1, num: -1})
	}
	return &t.tracks[id]
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

// NameTrack registers a display name for a track (>= 0).
func (t *Trace) NameTrack(track int, name string) { t.NameTrackNum(track, name, -1) }

// NameTrackNum names a track prefix+itoa(num), formatted only when a report
// asks (num < 0: prefix alone), so a run that names a track per request
// helper makes no string for it.
func (t *Trace) NameTrackNum(track int, prefix string, num int) {
	if t == nil || track < 0 {
		return
	}
	tk := t.track(track)
	tk.prefix, tk.num, tk.named = prefix, int32(num), true
}

// TrackName returns the display name of a track ("track<N>" if unnamed).
func (t *Trace) TrackName(track int) string {
	if t == nil {
		return ""
	}
	if track < 0 || track >= len(t.tracks) || !t.tracks[track].named {
		return "track" + strconv.Itoa(track)
	}
	tk := &t.tracks[track]
	if tk.num < 0 {
		return tk.prefix
	}
	return tk.prefix + strconv.Itoa(int(tk.num))
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
	if t == nil || track < 0 || track >= len(t.tracks) {
		return -1
	}
	return t.tracks[track].top
}

// Begin opens a scoped span on a track at the current virtual time,
// nested under the track's innermost open span. It returns the span id to
// pass to End. Spans from untracked processes (track < 0) are dropped.
func (t *Trace) Begin(track int, cl Class, name string, bytes int64) int {
	if t == nil || track < 0 {
		return -1
	}
	tk := t.track(track)
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: tk.top, Track: track, Group: -1,
		Class: cl, Name: name, Begin: t.now(), End: -1, Bytes: bytes,
	})
	tk.top = id
	return id
}

// End closes a scoped span at the current virtual time. End tolerates
// id == -1 (span was dropped or tracing is off) and out-of-order ends: it
// pops the track's open spans down to the span, and all of them if the span
// is not open.
func (t *Trace) End(id int) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	sp.End = t.now()
	if sp.Track < 0 || sp.Track >= len(t.tracks) {
		return
	}
	tk := &t.tracks[sp.Track]
	for open := tk.top; open >= 0; open = t.spans[open].Parent {
		if open == id {
			tk.top = sp.Parent
			return
		}
	}
	tk.top = -1
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
