package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// The performance trajectory: BENCH_trajectory.json holds one row per
// (commit, workload, seed) of the benchmark (bench/run.sh), each with its
// environment, command and repetitions, the six end-to-end metrics as min /
// median / IQR over the repetitions, and the paper-fidelity and event-count
// columns of one traced run. record appends rows and never rewrites one; a
// row taken from a CHANGES.md entry instead of a run says so ("transcribed")
// and holds the medians the entry quotes.

// trajectoryFile is the trajectory, in the directory srmbench runs in.
const trajectoryFile = "BENCH_trajectory.json"

var (
	endToEnd  = []string{"wall_s", "cpu_s", "peak_rss_mb", "allocs_per_rep", "setup_s", "sim_us"}
	fidelity  = []string{"srm_gain_min_pct", "paper_band_gap_pts", "hidden_pct", "recovery_us"}
	workloads = []string{"fig_grid", "rank_ladder", "train_overlap", "fault_storm"}
)

// gated reports whether a column has no noise: virtual time, event counts
// and the failed share, which a change that claims to move only host time
// must leave exactly as they are, and which -check holds to the committed row.
func gated(name string) bool {
	switch name {
	case "sim_us", "sim.events", "recovery_us", "hidden_pct", "srm_gain_min_pct", "failed_share":
		return true
	}
	return strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".events")
}

// spread is a metric over the repetitions of a row; a transcribed row has
// only the median.
type spread struct {
	Min    *float64 `json:"min,omitempty"`
	Median float64  `json:"median"`
	IQR    *float64 `json:"iqr,omitempty"`
}

type trajRow struct {
	Commit        string             `json:"commit"`
	Workload      string             `json:"workload"`
	Seed          int                `json:"seed"`
	Source        string             `json:"source"` // "measured", or "transcribed" from CHANGES.md
	Smoke         bool               `json:"smoke,omitempty"`
	Env           json.RawMessage    `json:"env,omitempty"`
	Command       string             `json:"command,omitempty"`
	Reps          int                `json:"reps,omitempty"`
	Metrics       map[string]spread  `json:"metrics"`
	Fidelity      map[string]float64 `json:"fidelity,omitempty"`
	Deterministic map[string]float64 `json:"deterministic,omitempty"` // the gated columns no other field holds
	Note          string             `json:"note,omitempty"`
}

func checkRecord(o *opts, _ []string) error {
	for _, w := range o.workloads() {
		if !slices.Contains(workloads, w) {
			return fmt.Errorf("unknown workload %q", w)
		}
	}
	if _, err := o.seedList(); err != nil {
		return err
	}
	if o.reps < 1 {
		return fmt.Errorf("-reps must be >= 1, got %d", o.reps)
	}
	if o.check && o.reps != 1 {
		// The gated columns have no noise: one untraced run, the one that
		// reports sim_us, is all a comparison needs.
		return fmt.Errorf("-check takes one untraced run, got -reps %d", o.reps)
	}
	return nil
}

func (o *opts) workloads() []string {
	if o.workload == "all" {
		return workloads
	}
	return strings.Split(o.workload, ",")
}

func (o *opts) seedList() ([]int, error) {
	var seeds []int
	for _, f := range strings.Split(o.seeds, ",") {
		s, err := strconv.Atoi(f)
		if err != nil || s < 0 {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// record runs the benchmark in each checkout, alternating between them
// repetition by repetition so that drift on the host falls on all alike, then
// once traced, and appends a row per (checkout, workload, seed) to the
// trajectory; with -check it compares the gated columns with the last row
// the trajectory holds for the same workload, seed and scale instead.
func record(o *opts, dirs []string) error {
	seeds, _ := o.seedList()
	rows, err := readTrajectory(trajectoryFile)
	if errors.Is(err, os.ErrNotExist) && !o.check {
		err = nil // the first row starts the file
	}
	if err != nil {
		return err
	}
	type key struct {
		dir, w string
		seed   int
	}
	runs := make(map[key][]map[string]float64)
	for rep := 0; rep < o.reps; rep++ {
		for _, seed := range seeds {
			for _, w := range o.workloads() {
				for _, dir := range dirs {
					m, _, err := o.bench(dir, w, seed, false)
					if err != nil {
						return err
					}
					k := key{dir, w, seed}
					runs[k] = append(runs[k], m)
					fmt.Fprintf(o.w, "%s %s seed %d rep %d:%s\n", dir, w, seed, rep+1, format(m, endToEnd))
				}
			}
		}
	}
	var failed []string
	for _, seed := range seeds {
		for _, w := range o.workloads() {
			for _, dir := range dirs {
				traced, env, err := o.bench(dir, w, seed, true)
				if err != nil {
					return err
				}
				row := o.row(w, seed, env, runs[key{dir, w, seed}], traced)
				if !o.check {
					rows = append(rows, row)
					fmt.Fprintf(o.w, "%s %s seed %d at %.7s:%s\n", dir, w, seed, row.Commit, format(traced, fidelity))
					continue
				}
				failed = append(failed, compare(rows, row)...)
			}
		}
	}
	if o.check {
		if len(failed) > 0 {
			return fmt.Errorf("the gated columns differ from %s:\n  %s", trajectoryFile, strings.Join(failed, "\n  "))
		}
		fmt.Fprintf(o.w, "the gated columns match %s\n", trajectoryFile)
		return nil
	}
	return writeTrajectory(trajectoryFile, rows)
}

// bench runs one workload of bench/run.sh in dir and returns the metrics of
// its contract line and the environment it reports; a run that is not
// correct is an error.
func (o *opts) bench(dir, w string, seed int, traced bool) (map[string]float64, json.RawMessage, error) {
	args := o.benchArgs(w, seed, traced)
	cmd := exec.Command("bash", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	if traced && o.smoke {
		// A traced smoke run can end before the collector has run a cycle,
		// and the benchmark then reports host.gc_cpu_share as 0/0, which it
		// cannot encode. The gated columns are virtual time and event counts,
		// which the collector does not move.
		cmd.Env = append(os.Environ(), "GOGC=5")
	}
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: bash %s: %w", dir, strings.Join(args, " "), err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var doc struct {
		Env json.RawMessage `json:"env"`
	}
	var line struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %w", dir, w, err)
	}
	if err := dec.Decode(&line); err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %w", dir, w, err)
	}
	if !line.Correct || line.Failed > 0 {
		return nil, nil, fmt.Errorf("%s: %s seed %d: correct %v, failed %d", dir, w, seed, line.Correct, line.Failed)
	}
	m := make(map[string]float64, len(line.Metrics))
	for name, v := range line.Metrics {
		m[name] = v.Value
	}
	return m, doc.Env, nil
}

func (o *opts) benchArgs(w string, seed int, traced bool) []string {
	args := []string{"bench/run.sh", "--workload", w, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if o.smoke {
		args = append(args, "--smoke")
	}
	return args
}

// row makes the trajectory row of one checkout's runs of a workload.
func (o *opts) row(w string, seed int, env json.RawMessage, runs []map[string]float64, traced map[string]float64) trajRow {
	var e struct {
		Commit string `json:"commit"`
	}
	_ = json.Unmarshal(env, &e) // env was decoded from the run's output, so it is JSON
	row := trajRow{
		Commit: e.Commit, Workload: w, Seed: seed, Source: "measured", Smoke: o.smoke, Env: env,
		Command: "bash " + strings.Join(o.benchArgs(w, seed, false), " "), Reps: len(runs),
		Metrics:       make(map[string]spread),
		Fidelity:      make(map[string]float64),
		Deterministic: make(map[string]float64),
	}
	for _, name := range endToEnd {
		var vs []float64
		for _, m := range runs {
			vs = append(vs, m[name])
		}
		row.Metrics[name] = spreadOf(vs)
	}
	for _, name := range fidelity {
		row.Fidelity[name] = traced[name]
	}
	for name, v := range traced {
		if gated(name) && !slices.Contains(endToEnd, name) && !slices.Contains(fidelity, name) {
			row.Deterministic[name] = v
		}
	}
	return row
}

// gatedColumns returns the gated columns of a row: the median of sim_us, the
// gated fidelity columns, and the event counts and failed share.
func gatedColumns(r trajRow) map[string]float64 {
	cols := make(map[string]float64)
	maps.Copy(cols, r.Deterministic)
	for name, s := range r.Metrics {
		if gated(name) {
			cols[name] = s.Median
		}
	}
	for name, v := range r.Fidelity {
		if gated(name) {
			cols[name] = v
		}
	}
	return cols
}

// spreadOf returns the min, the median and the interquartile range of vs,
// the quartiles interpolated between order statistics.
func spreadOf(vs []float64) spread {
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	iqr := q(0.75) - q(0.25)
	return spread{Min: &s[0], Median: q(0.5), IQR: &iqr}
}

// compare returns how the gated columns of row differ from those of the last
// measured row of rows for the same workload, seed and scale.
func compare(rows []trajRow, row trajRow) []string {
	at := fmt.Sprintf("%s seed %d", row.Workload, row.Seed)
	for i := len(rows) - 1; i >= 0; i-- {
		r := rows[i]
		if r.Workload != row.Workload || r.Seed != row.Seed || r.Smoke != row.Smoke || r.Source != "measured" {
			continue
		}
		var diffs []string
		committed, cols := gatedColumns(r), gatedColumns(row)
		for name, want := range committed {
			if got, ok := cols[name]; !ok || got != want {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v, committed %v (%.7s)", at, name, got, want, r.Commit))
			}
		}
		for name, got := range cols {
			if _, ok := committed[name]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v, not in the committed row (%.7s)", at, name, got, r.Commit))
			}
		}
		slices.Sort(diffs)
		return diffs
	}
	return []string{at + ": no committed row to compare with"}
}

func format(m map[string]float64, names []string) string {
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s %.6g", name, m[name])
	}
	return b.String()
}

func readTrajectory(path string) ([]trajRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []trajRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// writeTrajectory writes rows as a JSON array, one row to a line, so that an
// appended row is a one-line change.
func writeTrajectory(path string, rows []trajRow) error {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
