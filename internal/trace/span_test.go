package trace

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
)

// fakeClock returns a controllable now() and its setter.
func fakeClock() (now func() float64, set func(float64)) {
	var t float64
	return func() float64 { return t }, func(v float64) { t = v }
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	if tr.Spans() != nil {
		t.Fatal("nil trace returns spans")
	}
	tr.NameTrack(0, "x")
	if tr.TrackName(0) != "" {
		t.Fatal("nil trace names tracks")
	}
	if g := tr.NewGroup(); g != -1 {
		t.Fatalf("NewGroup on nil = %d", g)
	}
	if c := tr.Current(0); c != -1 {
		t.Fatalf("Current on nil = %d", c)
	}
	id := tr.Begin(0, ClassOp, "op", 0)
	if id != -1 {
		t.Fatalf("Begin on nil = %d", id)
	}
	tr.End(id)
	if id := tr.Add(0, -1, ClassPutWire, "put:wire", 0, 1, 2); id != -1 {
		t.Fatalf("Add on nil = %d", id)
	}
	if tr.CriticalPath() != nil {
		t.Fatal("CriticalPath on nil trace not nil")
	}
	if got := tr.TimelineText(); got != "(no spans)\n" {
		t.Fatalf("TimelineText on nil = %q", got)
	}
}

func TestBeginEndNesting(t *testing.T) {
	now, set := fakeClock()
	tr := New(now)
	set(1)
	op := tr.Begin(0, ClassOp, "bcast", 64)
	set(2)
	if got := tr.Current(0); got != op {
		t.Fatalf("Current = %d, want %d", got, op)
	}
	w := tr.Begin(0, ClassWaitFlag, "wait:flag", 0)
	set(5)
	tr.End(w)
	set(9)
	tr.End(op)
	sp := tr.Spans()
	if len(sp) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(sp))
	}
	if sp[w].Parent != op || sp[op].Parent != -1 {
		t.Fatalf("parents: %d %d", sp[op].Parent, sp[w].Parent)
	}
	if sp[w].Begin != 2 || sp[w].End != 5 || sp[op].Begin != 1 || sp[op].End != 9 {
		t.Fatalf("stamps: %+v %+v", sp[op], sp[w])
	}
	if tr.Current(0) != -1 {
		t.Fatal("stack not empty after End")
	}
	// Spans from untracked processes are dropped; End(-1) is a no-op.
	if id := tr.Begin(-1, ClassSmp, "smp", 0); id != -1 {
		t.Fatalf("Begin on track -1 = %d", id)
	}
	tr.End(-1)
}

func TestAddClampsEnd(t *testing.T) {
	now, _ := fakeClock()
	tr := New(now)
	g := tr.NewGroup()
	id := tr.Add(g, -1, ClassPutWire, "put:wire", 8, 10, 7)
	s := tr.Spans()[id]
	if s.End != s.Begin || s.Dur() != 0 {
		t.Fatalf("end-before-begin not clamped: %+v", s)
	}
	if s.Track != -1 || s.Group != g {
		t.Fatalf("async span identity: %+v", s)
	}
}

func TestTimelineTextStable(t *testing.T) {
	now, set := fakeClock()
	tr := New(now)
	tr.NameTrack(0, "rank0")
	set(0)
	op := tr.Begin(0, ClassOp, "bcast", 16)
	set(1)
	w := tr.Begin(0, ClassShmCopy, "shm:copy", 16)
	set(3)
	tr.End(w)
	tr.Add(tr.NewGroup(), op, ClassPutWire, "put:wire", 16, 1.5, 2.5)
	set(4)
	tr.End(op)
	want := "" +
		"     0.000      4.000  rank0          bcast 16B\n" +
		"     1.000      3.000  rank0            shm:copy 16B\n" +
		"     1.500      2.500  net/g0           put:wire 16B\n"
	if got := tr.TimelineText(); got != want {
		t.Fatalf("TimelineText:\n%s\nwant:\n%s", got, want)
	}
}

func TestChromeJSONDeterministicAndWellFormed(t *testing.T) {
	build := func() *Trace {
		now, set := fakeClock()
		tr := New(now)
		tr.Label = "unit"
		tr.NameTrack(1, "rank1")
		tr.NameTrack(0, "rank0")
		set(0)
		op := tr.Begin(0, ClassOp, "bcast", 8)
		g := tr.NewGroup()
		tr.Add(g, op, ClassPutInject, "put:inject", 8, 0, 0.5)
		tr.Add(g, op, ClassPutWire, "put:wire", 8, 0.5, 2)
		set(3)
		tr.End(op)
		return tr
	}
	a, err := build().ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("ChromeJSON not byte-identical across identical traces")
	}
	for _, frag := range []string{`"ph": "X"`, `"ph": "b"`, `"ph": "e"`, `"ph": "M"`,
		`"id": "g0"`, `"name": "rank0"`, `"name": "unit"`} {
		if !bytes.Contains(a, []byte(frag)) {
			t.Errorf("ChromeJSON missing %s:\n%s", frag, a)
		}
	}
}

func TestCriticalPathAttribution(t *testing.T) {
	now, set := fakeClock()
	tr := New(now)
	// Track 0: op [0,10] with wait:flag [2,5]. Track 1: op [1,12] with
	// wait:arrive [4,10]. Track 1 finishes last, so it is critical; its
	// segments are skew 1 (late begin), wait:arrive 6, cpu 5 (own time).
	set(0)
	a := tr.Begin(0, ClassOp, "bcast", 32)
	set(2)
	aw := tr.Begin(0, ClassWaitFlag, "wait:flag", 0)
	set(5)
	tr.End(aw)
	set(10)
	tr.End(a)

	set(1)
	b := tr.Begin(1, ClassOp, "bcast", 32)
	set(4)
	bw := tr.Begin(1, ClassWaitArrive, "wait:arrive", 0)
	set(10)
	tr.End(bw)
	set(12)
	tr.End(b)

	ops := tr.CriticalPath()
	if len(ops) != 1 {
		t.Fatalf("got %d op reports, want 1", len(ops))
	}
	oc := ops[0]
	if oc.Name != "bcast" || oc.CritTrack != 1 || oc.Begin != 0 || oc.End != 12 {
		t.Fatalf("report identity: %+v", oc)
	}
	if oc.Elapsed != 12 {
		t.Fatalf("Elapsed = %g", oc.Elapsed)
	}
	if oc.Segments[ClassSkew] != 1 || oc.Segments[ClassWaitArrive] != 6 || oc.Segments[ClassCPU] != 5 {
		t.Fatalf("segments: %v", oc.Segments)
	}
	var sum float64
	for _, v := range oc.Segments {
		sum += v
	}
	if sum != oc.Elapsed {
		t.Fatalf("segments sum %g != elapsed %g", sum, oc.Elapsed)
	}
	if oc.Dominant != ClassWaitArrive {
		t.Fatalf("dominant = %s", oc.Dominant)
	}
	if oc.Totals[ClassWaitFlag] != 3 || oc.Totals[ClassOp] != 21 {
		t.Fatalf("totals: %v", oc.Totals)
	}
	text := CritPathText("unit", ops)
	for _, frag := range []string{"== unit ==", "op 0 bcast 32B", "wait:arrive", "dominant wait:arrive"} {
		if !strings.Contains(text, frag) {
			t.Errorf("CritPathText missing %q:\n%s", frag, text)
		}
	}
}

func TestClassStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < numClasses; c++ {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "class(") {
			t.Fatalf("class %d has no name", c)
		}
		if seen[s] {
			t.Fatalf("duplicate class name %q", s)
		}
		seen[s] = true
	}
}

// stackModel is the open-span bookkeeping Trace kept before its tracks became
// one dense slice: a stack of open span ids per track, in a map.
type stackModel map[int][]int

func (m stackModel) current(track int) int {
	if st := m[track]; len(st) > 0 {
		return st[len(st)-1]
	}
	return -1
}

func (m stackModel) begin(track, id int) { m[track] = append(m[track], id) }

// end pops the track's stack down to id, or empties it if id is not on it.
func (m stackModel) end(track, id int) {
	st := m[track]
	for len(st) > 0 {
		top := st[len(st)-1]
		st = st[:len(st)-1]
		if top == id {
			break
		}
	}
	m[track] = st
}

// TestTrackStateMatchesStackModel: the innermost open span of each track, read
// from the Parent chain, is what a stack per track gives on seeded random
// sequences of Begin and End over several tracks — out-of-order Ends, Ends of
// spans already popped or of async spans, End(-1), tracks never begun and Adds
// in between — and every recorded Parent is the model's top at Begin.
func TestTrackStateMatchesStackModel(t *testing.T) {
	const tracks = 5 // Current asks about one more, never begun
	for seed := uint64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		now, set := fakeClock()
		tr, model := New(now), stackModel{}
		parents := map[int]int{}
		var ids []int // every span id recorded, scoped or async
		for step := 0; step < 400; step++ {
			set(float64(step))
			switch op := rng.IntN(10); {
			case op < 4:
				track := rng.IntN(tracks - 1) // the last track is never begun
				id := tr.Begin(track, ClassOp, "op", 0)
				parents[id] = model.current(track)
				model.begin(track, id)
				ids = append(ids, id)
			case op < 8 && len(ids) > 0:
				id := ids[rng.IntN(len(ids))] // open, popped, ended or async
				if rng.IntN(4) == 0 && model.current(tr.Spans()[id].Track) >= 0 {
					id = model.current(tr.Spans()[id].Track) // the common in-order End
				}
				if tk := tr.Spans()[id].Track; tk >= 0 {
					model.end(tk, id)
				}
				tr.End(id)
			case op == 8:
				tr.End(-1)
			default:
				parent := -1
				if len(ids) > 0 {
					parent = ids[rng.IntN(len(ids))]
				}
				ids = append(ids, tr.Add(tr.NewGroup(), parent, ClassPutWire, "put:wire", 8, float64(step), float64(step)+1))
			}
			for track := -1; track <= tracks; track++ {
				if got, want := tr.Current(track), model.current(track); got != want {
					t.Fatalf("seed %d step %d: Current(%d) = %d, the stack model's top is %d", seed, step, track, got, want)
				}
			}
		}
		for id, want := range parents {
			if got := tr.Spans()[id].Parent; got != want {
				t.Fatalf("seed %d: span %d has Parent %d, the stack model's top at its Begin was %d", seed, id, got, want)
			}
		}
	}
}

// TestTrackNamesFormatOnDemand: a track named by prefix and number reads as
// the two formatted together, in TrackName, the timeline and the Chrome export,
// and only named tracks get a thread_name entry there.
func TestTrackNamesFormatOnDemand(t *testing.T) {
	now, _ := fakeClock()
	tr := New(now)
	tr.NameTrackNum(3, "rank1.req", 0)
	tr.NameTrackNum(0, "rank", 0)
	tr.NameTrack(1, "plain")
	for track, want := range map[int]string{0: "rank0", 1: "plain", 2: "track2", 3: "rank1.req0", 9: "track9"} {
		if got := tr.TrackName(track); got != want {
			t.Errorf("TrackName(%d) = %q, want %q", track, got, want)
		}
	}
	tr.End(tr.Begin(3, ClassReqOp, "iallreduce", 8))
	tr.End(tr.Begin(2, ClassOp, "bcast", 8))
	if got := tr.TimelineText(); !strings.Contains(got, "rank1.req0") || !strings.Contains(got, "track2") {
		t.Errorf("timeline does not name the tracks:\n%s", got)
	}
	js, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(js, []byte(`"thread_name"`)); n != 3 {
		t.Errorf("%d thread_name entries, want one per named track (3):\n%s", n, js)
	}
	if n := testing.AllocsPerRun(100, func() { tr.NameTrackNum(3, "rank1.req", 1) }); n != 0 {
		t.Errorf("naming a track made %.0f objects, want 0", n)
	}
}
