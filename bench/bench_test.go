package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The tests run every workload at smoke scale (<= 256 ranks, 2
// repetitions): they check the harness, not the numbers.

func smokeRun(t *testing.T, name string, traced bool, traceOut string) *report {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	rep, err := runWorkload(w, runOptions{seed: 1, smoke: true, traced: traced, traceOut: traceOut})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d/%d: %v", name, rep.Correct, rep.Failed, rep.Attempted, rep.Fails)
	}
	return rep
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables in metrics.go and main.go say the same
// thing, within the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(workloads) || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in main.go (limit 8)", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, main.go has %q (or their why differs)", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		if w.reps < 7 {
			t.Errorf("workload %s: %d repetitions, want at least 7", w.name, w.reps)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go (limit 16)", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, metrics.go %+v", i, g, m)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if g := b.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, metrics.go %+v", i, g, m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("metric %+v breaks the naming contract", m)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// An untraced run emits exactly the end-to-end metrics, a traced run
// exactly the per-layer ones, every value a finite number.
func TestEveryMetricIsEmitted(t *testing.T) {
	check := func(rep *report, traced bool, want []metricSpec) {
		t.Helper()
		got := contract([]*report{rep}, traced).Metrics
		for _, m := range want {
			v, ok := got[m.Name]
			if !ok {
				t.Errorf("%s: %s not emitted", rep.Name, m.Name)
			} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %v %s", rep.Name, m.Name, v.Value, v.Unit)
			}
			delete(got, m.Name)
		}
		for k := range got {
			t.Errorf("%s: %s emitted but not listed", rep.Name, k)
		}
	}
	for _, w := range workloads {
		rep := smokeRun(t, w.name, false, "")
		check(rep, false, endToEnd)
		for _, m := range rep.Metrics {
			if m.Kind == "end_to_end" && m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
			}
		}
	}
}

// The traced run: every per-layer metric, shares that sum to one, the
// workload's own metrics present and the other workloads' marked -1, and
// a span tree in which every parent exists and encloses its children.
func TestTracedRun(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	rep := smokeRun(t, "train_overlap", true, tracePath)
	got := contract([]*report{rep}, true).Metrics
	if len(got) != len(perLayer) {
		t.Errorf("%d per-layer metrics emitted, %d listed", len(got), len(perLayer))
	}
	var shares float64
	for _, m := range perLayer {
		v, ok := got[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: emitted=%v value=%v", m.Name, ok, v.Value)
		}
		if strings.HasPrefix(m.Name, "share.") {
			shares += v.Value
		}
	}
	if math.Abs(shares-1) > 0.01 {
		t.Errorf("share.* sums to %v", shares)
	}
	if got["hidden_pct"].Value <= 0 || got["step_us"].Value <= 0 {
		t.Errorf("train_overlap's own metrics: hidden_pct=%v step_us=%v", got["hidden_pct"].Value, got["step_us"].Value)
	}
	for _, n := range []string{"srm_gain_min_pct", "recovery_us", "sim.digest_match_golden"} {
		if got[n].Value != notApplicable {
			t.Errorf("%s = %v on train_overlap at smoke scale, want %v", n, got[n].Value, notApplicable)
		}
	}
	for _, rg := range coreRegimes {
		if got["core."+rg.name+".events"].Value <= 0 {
			t.Errorf("core.%s.events = %v: the engines disagree", rg.name, got["core."+rg.name+".events"].Value)
		}
	}
	if got["rma.retries_per_put"].Value <= 0 {
		t.Error("rma.retries_per_put is 0 on a wire that drops 5 %")
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   *float64
			Dur  *float64
			Pid  *float64
			Tid  *float64
			Args struct{ ID, Parent *int }
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	type iv struct{ start, end float64 }
	byID := map[int]iv{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %q without numeric pid/tid", e.Name)
		}
		if e.Ph == "M" {
			continue
		}
		if e.Ph != "X" || e.Ts == nil || e.Dur == nil || *e.Dur < 0 || e.Args.ID == nil || e.Args.Parent == nil {
			t.Fatalf("event %q: ph=%s ts=%v dur=%v args=%+v", e.Name, e.Ph, e.Ts, e.Dur, e.Args)
		}
		byID[*e.Args.ID] = iv{*e.Ts, *e.Ts + *e.Dur}
		names[strings.SplitN(e.Name, ":", 2)[0]] = true
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || *e.Args.Parent == -1 {
			continue
		}
		p, ok := byID[*e.Args.Parent]
		me := byID[*e.Args.ID]
		const slack = 1e-3 // microseconds: float rounding of the nanosecond clock
		if !ok || me.start < p.start-slack || me.end > p.end+slack {
			t.Errorf("span %q [%v, %v] is not inside its parent %d [%v, %v] (exists=%v)", e.Name, me.start, me.end, *e.Args.Parent, p.start, p.end, ok)
		}
	}
	for _, n := range []string{"workload", "rep", "srmcoll.Run", "layers", "layer", "sample"} {
		if !names[n] {
			t.Errorf("no %s span in the trace", n)
		}
	}
}

// Two independent builds of one seed repeat exactly; another seed reaches
// the fault schedule.
func TestDeterminismAndSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.build(1, true).repetition(nil, -1), w.build(1, true).repetition(nil, -1)
		if a.simUS != b.simUS || a.events != b.events || a.digest != b.digest || a.simUS <= 0 || a.events == 0 {
			t.Errorf("%s: two runs of seed 1 differ or are empty: %+v vs %+v", w.name, a, b)
		}
	}
	w, _ := findWorkload("fault_storm")
	if a, b := w.build(1, true).repetition(nil, -1), w.build(2, true).repetition(nil, -1); a.digest == b.digest {
		t.Error("fault_storm: seeds 1 and 2 give the same digest: the seed does not reach the fault schedule")
	}
}

// A cell whose output no longer matches the sequential reference is
// counted as failed and makes the run incorrect.
func TestCorruptedOutputIsCounted(t *testing.T) {
	in := buildFigGrid(1, true)
	clean := in.repetition(nil, -1)
	if clean.failed != 0 {
		t.Fatalf("clean repetition failed %d cells: %v", clean.failed, clean.fails)
	}
	// The references were computed at build time: flipping a payload word
	// now makes every reduction of that word come out "wrong".
	in.inputs.buf[0] ^= 0x40
	bad := in.repetition(nil, -1)
	if bad.failed == 0 || bad.failed == bad.cells {
		t.Fatalf("corrupted repetition failed %d of %d cells, want some but not all", bad.failed, bad.cells)
	}
	if bad.digest == clean.digest {
		t.Error("digest did not change when cells failed")
	}
	if share := float64(bad.failed) / float64(bad.cells); share <= 0 {
		t.Errorf("failed_share = %v", share)
	}
}

// pb builds profile.proto messages for the decoder test.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) int(field int, v uint64) { p.varint(uint64(field) << 3); p.varint(v) }
func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(field, q.Bytes())
}

func TestFoldSyntheticProfile(t *testing.T) {
	strs := []string{"", "runtime.memmove", "srmcoll/internal/machine.(*Machine).Memcpy", "srmcoll/internal/core.(*SRM).Bcast",
		"main.(*figGrid).cell.func1", "srmcoll.(*Cluster).Run.func1", "runtime.gcBgMarkWorker", "runtime.gcDrain",
		"runtime.chansend", "srmcoll/internal/sim.(*Proc).park", "runtime.mcall", "runtime.schedule", "main.matches"}
	var prof pb
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	for id := 1; id < len(strs); id++ { // function id == location id == string index
		var fn, line, loc pb
		fn.int(1, uint64(id))
		fn.int(2, uint64(id))
		prof.bytes(5, fn.Bytes())
		line.int(1, uint64(id))
		loc.int(1, uint64(id))
		loc.bytes(4, line.Bytes())
		if id == 2 { // Memcpy's location also holds core.Bcast, inlined into... the caller comes last
			var caller pb
			caller.int(1, 3)
			loc.bytes(4, caller.Bytes())
		}
		prof.bytes(4, loc.Bytes())
	}
	sample := func(weight uint64, packedLocs bool, locs ...uint64) {
		var s pb
		if packedLocs {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.int(1, l)
			}
		}
		s.packed(2, 1, weight)
		prof.bytes(2, s.Bytes())
	}
	sample(40, true, 1, 2, 4, 5)  // memmove under machine.Memcpy (inlined into core.Bcast) -> machine
	sample(20, false, 8, 9, 3, 4) // channel send under (*Proc).park -> sim
	sample(10, true, 7, 6)        // background mark worker -> rt.gc
	sample(10, true, 11, 10)      // scheduler -> rt.sched
	sample(10, true, 12, 4, 5)    // the harness's own compare -> harness
	sample(10, false, 1)          // a bare runtime frame -> rt.other
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 || len(samples[0].stack) != 5 || samples[0].stack[2] != strs[3] {
		t.Fatalf("decoded %d samples; first stack %v", len(samples), samples[0].stack)
	}
	shares := foldProfile(samples)
	want := map[string]float64{"machine": 0.4, "sim": 0.2, "rt.gc": 0.1, "rt.sched": 0.1, "harness": 0.1, "rt.other": 0.1}
	var sum float64
	for _, c := range foldClasses {
		if math.Abs(shares[c]-want[c]) > 1e-9 {
			t.Errorf("share.%s = %v, want %v", c, shares[c], want[c])
		}
		sum += shares[c]
	}
	if len(shares) != len(foldClasses) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d classes summing to %v", len(shares), sum)
	}
	if _, err := parseProfile([]byte{0x12, 0x7f}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall, rss, failed, gain := endToEnd[0], endToEnd[2], virtualExact[0], virtualExact[1]
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00}
	b := wall.Bound // quartiles at 1 -+ 0.8b: a spread of 1.6 bounds
	noisy := []float64{1 - b, 1 + b, 1.00, 1 - 0.8*b, 1 + 0.8*b, 1.00, 1.02}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", wall, steady, steady, "ok"},
		{"slower within the bound", wall, steady, scale(steady, 1+0.8*wall.Bound), "ok"},
		{"slower beyond the bound", wall, steady, scale(steady, 1+1.5*wall.Bound), "REGRESSION"},
		{"every run faster", wall, steady, scale(steady, 0.9), "better"},
		{"spread wider than the bound", wall, noisy, scale(noisy, 0.97), "unresolved"},
		{"noisy but every run faster", wall, noisy, scale(steady, 0.5), "better"},
		{"single values", rss, []float64{100}, []float64{100 * (1 + 0.5*rss.Bound)}, "ok"},
		{"failed share rises", failed, []float64{0}, []float64{0.01}, "REGRESSION"},
		{"failed share stays 0", failed, []float64{0}, []float64{0}, "ok"},
		{"exact metric drops (higher is better)", gain, []float64{35.3}, []float64{35.2}, "REGRESSION"},
		{"exact metric rises (higher is better)", gain, []float64{35.3}, []float64{36}, "better"},
	} {
		if got, _ := verdict(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// End to end through files: a document compared with itself passes, and
	// with a copy whose wall_s is 50 % up it exits 1.
	rep := smokeRun(t, "rank_ladder", false, "")
	write := func(name string, scaleWall float64) string {
		r := *rep
		r.Metrics = append([]metric(nil), rep.Metrics...)
		for i, m := range r.Metrics {
			if m.Name == "wall_s" {
				m.Samples = scale(m.Samples, scaleWall)
				r.Metrics[i] = m
			}
		}
		js, err := json.Marshal(document{Workloads: []*report{&r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, append(js, js...), 0o644); err != nil { // two documents back to back
			t.Fatal(err)
		}
		return path
	}
	base, slow := write("a.json", 1), write("b.json", 1.5)
	var out bytes.Buffer
	if code := compareFiles(&out, base, base); code != 0 {
		t.Errorf("self-compare exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("50 %% slower exits %d:\n%s", code, out.String())
	}
}
