package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// bench -compare A.json B.json: A is the parent's document(s), B the
// change's. A file may hold several documents back to back (several runs
// of -workload all); their samples are pooled per (workload, metric).
//
// For every end-to-end metric on every workload the bound fixed in
// metrics.go (and mirrored in BENCHMARK.json) applies: B's median worse
// than A's by more than the bound is a regression. Where either side's
// run-to-run spread is wider than the bound the pair is "unresolved", not
// unchanged — unless every run of B reads better than every run of A.
// The virtual-time metrics are deterministic and held to bound 0.

// compared are the metrics -compare judges, with their bounds.
var compared = append(append([]metricSpec(nil), endToEnd...), virtualExact...)

type side struct {
	samples []float64
	unit    string
}

// loadSide pools the samples of every document in path, keyed by
// workload then metric.
func loadSide(path string) (map[string]map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]*side{}
	dec := json.NewDecoder(f)
	for n := 0; ; n++ {
		var doc document
		if err := dec.Decode(&doc); errors.Is(err, io.EOF) && n > 0 {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: document %d: %w", path, n+1, err)
		}
		for _, r := range doc.Workloads {
			if out[r.Name] == nil {
				out[r.Name] = map[string]*side{}
			}
			for _, m := range r.Metrics {
				s := out[r.Name][m.Name]
				if s == nil {
					s = &side{unit: m.Unit}
					out[r.Name][m.Name] = s
				}
				if len(m.Samples) > 0 {
					s.samples = append(s.samples, m.Samples...)
				} else {
					s.samples = append(s.samples, m.Value)
				}
			}
		}
	}
}

type summary struct{ med, min, max, spread float64 }

// summarize gives the median, extremes and spread of one side: the
// distance between the quartiles with four or more samples, between the
// extremes with fewer, as a share of the median.
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	sm := summary{med: median(s), min: s[0], max: s[len(s)-1]}
	lo, hi := sm.min, sm.max
	if n := len(s); n >= 4 {
		lo, hi = median(s[:n/2]), median(s[(n+1)/2:])
	}
	if sm.med != 0 {
		sm.spread = (hi - lo) / math.Abs(sm.med)
	}
	return sm
}

// verdict judges B against A for one metric.
func verdict(spec metricSpec, a, b []float64) (string, float64) {
	sa, sb := summarize(a), summarize(b)
	sign := 1.0 // change > 0 means B is worse
	if spec.Better == higher {
		sign = -1
	}
	change := sign * (sb.med - sa.med)
	if sa.med != 0 {
		change /= math.Abs(sa.med)
	}
	allBetter := sb.max < sa.min // every run of B beats every run of A
	if spec.Better == higher {
		allBetter = sb.min > sa.max
	}
	switch {
	case change > spec.Bound:
		return "REGRESSION", change
	case allBetter:
		return "better", change
	case math.Max(sa.spread, sb.spread) > spec.Bound && spec.Bound > 0:
		return "unresolved", change
	}
	return "ok", change
}

// compareFiles prints one row per (workload, metric) and returns the
// process exit code: 1 on any regression or a higher failed_share.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := loadSide(pathA)
	b, errB := loadSide(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareSides(w, a, b)
}

func compareSides(w io.Writer, a, b map[string]map[string]*side) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [min, max] n\tB median [min, max] n\tworse by\tbound\tverdict")
	code := 0
	row := func(s summary, n int) string { return fmt.Sprintf("%.6g [%.6g, %.6g] %d", s.med, s.min, s.max, n) }
	for _, wl := range workloads {
		for _, spec := range compared {
			ma, mb := a[wl.name][spec.Name], b[wl.name][spec.Name]
			if ma == nil && mb == nil {
				continue
			}
			if ma == nil || mb == nil {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\tMISSING on one side\n", wl.name, spec.Name)
				code = 1
				continue
			}
			v, change := verdict(spec, ma.samples, mb.samples)
			if v == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%%\t%.0f%%\t%s\n", wl.name, spec.Name, ma.unit,
				row(summarize(ma.samples), len(ma.samples)), row(summarize(mb.samples), len(mb.samples)),
				100*change, 100*spec.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return code
}
