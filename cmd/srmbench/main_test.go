package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// A bad argument exits 2 with a message naming it, before anything runs.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "no subcommand"},
		{[]string{"bogus"}, `unknown subcommand "bogus"`},
		{[]string{"fig", "13"}, `unknown name "13"`},
		{[]string{"fig"}, "missing NAME..."},
		{[]string{"ablation", "bogus"}, `unknown name "bogus"`},
		{[]string{"fig", "-j", "0", "9"}, "-j must be >= 1, got 0"},
		{[]string{"ranks", "-1"}, "flag provided but not defined: -1"},
		{[]string{"ranks", "0"}, `rank count "0"`},
		{[]string{"ranks", "-op", "scan", "64"}, `unknown -op "scan"`},
		{[]string{"tune", "-topo", "12x"}, `bad topology "12x"`},
		{[]string{"tune", "extra"}, `unexpected argument "extra"`},
		{[]string{"tree", "-kind", "hexagonal"}, `unknown kind "hexagonal"`},
		{[]string{"tree", "-root", "128"}, "root 128 out of range for 128 ranks"},
		{[]string{"trace"}, "missing FILE"},
		{[]string{"ranks", "64", "128"}, `unexpected argument "128"`},
		{[]string{"lat", "-quick"}, "flag provided but not defined: -quick"},
		{[]string{"record"}, "missing DIR..."},
		{[]string{"diverge", "64"}, "want one of -record FILE and a FILE"},
		{[]string{"diverge", "-record", "f", "64", "g"}, "want one of -record FILE and a FILE"},
		{[]string{"record", "-reps", "0", "."}, "-reps must be >= 1, got 0"},
		{[]string{"record", "-check", "-reps", "3", "."}, "-check takes one untraced run, got -reps 3"},
		{[]string{"record", "-workload", "fig_grid,bogus", "."}, `unknown workload "bogus"`},
		{[]string{"record", "-seeds", "1,x", "."}, `bad seed "x"`},
	} {
		if job, code := parse(tc.args, io.Discard, io.Discard); job != nil || code != 2 {
			t.Errorf("parse %q: job %v, code %d; want no job, code 2", tc.args, job != nil, code)
		}
		code, stdout, stderr := runArgs(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("srmbench %q: exit %d, stdout %q, stderr %q; want exit 2, no output, a message with %q",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// tree and lat print byte for byte what the standalone tree-embedding,
// tree-broadcast and latency commands they replaced printed; testdata holds
// those commands' output, with the broadcast lines for each tree kind.
func TestToolsMatchGoldens(t *testing.T) {
	for golden, args := range map[string][]string{
		"tree_binomial.txt":  {"tree"},
		"tree_binary.txt":    {"tree", "-kind", "binary"},
		"tree_fibonacci.txt": {"tree", "-kind", "fibonacci"},
		"tree_flat.txt":      {"tree", "-kind", "flat", "-nodes", "8", "-tpn", "16", "-root", "0"},
		"lat.txt":            {"lat"},
		"lat_via.txt":        {"lat", "-via"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if code, stdout, stderr := runArgs(args...); code != 0 || stdout != string(want) {
			t.Errorf("srmbench %q: exit %d, stderr %q, stdout\n%s\nwant testdata/%s:\n%s", args, code, stderr, stdout, golden, want)
		}
	}
}

// The two kinds beyond the paper's four embed and broadcast too.
func TestTreeNewKinds(t *testing.T) {
	for _, kind := range []string{"multilevel", "bine"} {
		code, stdout, stderr := runArgs("tree", "-kind", kind, "-root", "37")
		if code != 0 || !strings.HasPrefix(stdout, "128-processor "+kind+" tree") ||
			!strings.Contains(stdout, "4 KB SRM broadcast on this cluster") {
			t.Errorf("tree -kind %s: exit %d, stderr %q, stdout\n%s", kind, code, stderr, stdout)
		}
	}
}

func TestRanksBarrier(t *testing.T) {
	code, stdout, stderr := runArgs("ranks", "-op", "barrier", "1024")
	if code != 0 || !strings.HasPrefix(stdout, "ranks 1024 (128 nodes x 8 tasks) barrier: sim ") {
		t.Errorf("ranks -op barrier 1024: exit %d, stderr %q, stdout %q", code, stderr, stdout)
	}
}

// recordStream records a 64-rank barrier's event stream to a fresh file and
// returns its path, the header's length and the event count.
func recordStream(t *testing.T) (f string, head, n int) {
	t.Helper()
	f = filepath.Join(t.TempDir(), "stream")
	code, stdout, stderr := runArgs("diverge", "-op", "barrier", "-record", f, "64")
	if _, err := fmt.Sscanf(stdout, "recorded %d events", &n); code != 0 || err != nil {
		t.Fatalf("record: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	head = bytes.IndexByte(b, '\n') + 1
	if len(b) != head+n*stepSize {
		t.Fatalf("record of %d events is %d bytes after a %d-byte header; want %d a step", n, len(b)-head, head, stepSize)
	}
	return f, head, n
}

// diverge finds no difference between two runs of one build, and names the
// first event of a record whose two events were planted in swapped order.
func TestDivergeNamesASwap(t *testing.T) {
	f, head, n := recordStream(t)
	if code, stdout, stderr := runArgs("diverge", "-op", "barrier", "64", f); code != 0 || stdout != fmt.Sprintf("no divergence: %d events match %s\n", n, f) {
		t.Fatalf("same build: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	ev := func(i int) []byte { return b[head+i*stepSize : head+(i+1)*stepSize] }
	var tmp [stepSize]byte
	copy(tmp[:], ev(100))
	copy(ev(100), ev(101))
	copy(ev(101), tmp[:])
	if err := os.WriteFile(f, b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runArgs("diverge", "-op", "barrier", "64", f)
	if code != 1 || !strings.HasPrefix(stdout, "first difference at event 100\n  record:   "+stepLine(stepOf(ev(100)), true)+"\n") ||
		!strings.Contains(stdout, "this run: "+stepLine(stepOf(ev(101)), true)+", cond#") {
		t.Errorf("planted swap: exit %d, stdout\n%s", code, stdout)
	}
}

// A record one event short or one event long differs where it ends, and one
// cut partway through an event is an error, not an end.
func TestDivergeRecordEnds(t *testing.T) {
	f, _, n := recordStream(t)
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	last := b[len(b)-stepSize:]
	for _, tc := range []struct {
		name string
		rec  []byte
		want string
	}{
		{"short", b[:len(b)-stepSize], fmt.Sprintf("first difference at event %d\n  record:   ended\n  this run: %s, ", n-1, stepLine(stepOf(last), true))},
		{"long", append(slices.Clip(b), last...), fmt.Sprintf("first difference at event %d\n  record:   %s\n  this run: ended\n", n, stepLine(stepOf(last), true))},
		{"cut", b[:len(b)-stepSize/2], ""},
	} {
		if err := os.WriteFile(f, tc.rec, 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runArgs("diverge", "-op", "barrier", "64", f)
		if tc.want == "" {
			if want := fmt.Sprintf("is cut partway through event %d", n-1); code != 1 || stdout != "" || !strings.Contains(stderr, want) {
				t.Errorf("%s record: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.name, code, stdout, stderr, want)
			}
		} else if code != 1 || !strings.HasPrefix(stdout, tc.want) {
			t.Errorf("%s record: exit %d, stdout\n%s\nwant a report starting\n%s", tc.name, code, stdout, tc.want)
		}
	}
}

// Recording a run's stream and replaying it allocates what the run does: no
// copy of the stream is held on either side.
func TestDivergeHoldsNoStream(t *testing.T) {
	f := filepath.Join(t.TempDir(), "stream")
	alloc := func(args ...string) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if code, stdout, stderr := runArgs(args...); code != 0 {
			t.Fatalf("srmbench %q: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	alloc("ranks", "16384") // warm the reserve
	plain := alloc("ranks", "16384")
	for _, args := range [][]string{{"diverge", "-record", f, "16384"}, {"diverge", "16384", f}} {
		a := alloc(args...)
		if a > plain+1<<20 {
			t.Errorf("srmbench %q allocated %d B, a plain run %d B: want at most 1 MiB more", args, a, plain)
		}
	}
}

// A trajectory row's spread is over its repetitions, and -check holds a run's
// gated columns to the last measured row of its workload, seed and scale.
func TestTrajectoryRows(t *testing.T) {
	sp := spreadOf([]float64{4, 1, 3, 2})
	if *sp.Min != 1 || sp.Median != 2.5 || *sp.IQR != 1.5 {
		t.Errorf("spread of 1..4: min %v median %v iqr %v", *sp.Min, sp.Median, *sp.IQR)
	}
	// A row holds each column once: sim_us in its metrics, recovery_us in its
	// fidelity, and only the gated columns no other field holds apart.
	traced := map[string]float64{"sim_us": 509.36539307887176, "recovery_us": -1, "sim.events": 7041, "failed_share": 0, "host.gc_cpu_share": 0.1}
	r := (&opts{seconds: 1}).row("rank_ladder", 1, []byte(`{"commit":"d"}`), []map[string]float64{traced}, traced)
	if want := map[string]float64{"sim.events": 7041, "failed_share": 0}; !maps.Equal(r.Deterministic, want) || r.Commit != "d" {
		t.Errorf("row's deterministic columns %v, commit %q; want %v, d", r.Deterministic, r.Commit, want)
	}
	if r.Metrics["sim_us"].Median != 509.36539307887176 || r.Fidelity["recovery_us"] != -1 {
		t.Errorf("row's sim_us %v, recovery_us %v", r.Metrics["sim_us"], r.Fidelity["recovery_us"])
	}
	row := func(commit string, smoke bool, events float64) trajRow {
		return trajRow{Commit: commit, Workload: "rank_ladder", Seed: 1, Source: "measured", Smoke: smoke,
			Metrics:       map[string]spread{"sim_us": {Median: 509.36539307887176}, "wall_s": {Median: 0.5}},
			Fidelity:      map[string]float64{"recovery_us": -1, "paper_band_gap_pts": -1},
			Deterministic: map[string]float64{"sim.events": events}}
	}
	rows := []trajRow{row("a", true, 7040), row("b", false, 1), row("c", true, 7041)}
	if d := compare(rows, row("d", true, 7041)); len(d) != 0 {
		t.Errorf("same columns as the last smoke row: %q", d)
	}
	if d := compare(rows, row("d", true, 7040)); len(d) != 1 || !strings.Contains(d[0], "sim.events: 7040, committed 7041") {
		t.Errorf("one event off: %q", d)
	}
	if d := compare(rows[1:2], row("d", true, 7040)); len(d) != 1 || !strings.Contains(d[0], "no committed row") {
		t.Errorf("no smoke row: %q", d)
	}
	// The gated columns a row holds in its metrics and fidelity count too; the
	// noisy and ungated ones do not.
	moved := row("d", true, 7041)
	moved.Metrics["sim_us"] = spread{Median: 509.3654}
	moved.Metrics["wall_s"] = spread{Median: 0.6}
	moved.Fidelity["recovery_us"] = 1
	moved.Fidelity["paper_band_gap_pts"] = 0
	if d := compare(rows, moved); len(d) != 2 || !strings.Contains(d[0], "recovery_us: 1, committed -1") || !strings.Contains(d[1], "sim_us: 509.3654, committed 509.36539307887176") {
		t.Errorf("sim_us and recovery_us moved: %q", d)
	}
}
