package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// golden.json pins, for seed 1 at full scale, everything about the runs
// that must not move under a host-only change: each workload's virtual
// time, event count and digest, and the exact counts the layer drivers
// produce. Other seeds check payloads and repetition-to-repetition
// identity only.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed      uint64                    `json:"seed"`
	Workloads map[string]goldenWorkload `json:"workloads"`
	Layers    map[string]float64        `json:"layers"` // core.<regime>.events, scale.proto_bytes_per_rank, rma.retries_per_put
}

type goldenWorkload struct {
	SimUS  float64 `json:"sim_us"`
	Events uint64  `json:"sim.events"`
	Digest string  `json:"digest"`
}

// goldenLayerMetric reports whether a driver metric is an exact count the
// golden pins.
func goldenLayerMetric(name string) bool {
	return name == "scale.proto_bytes_per_rank" || name == "rma.retries_per_put" ||
		(strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".events"))
}

// goldenFor returns the golden that applies to this run, if any.
func goldenFor(opt runOptions) (*goldenFile, bool) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench/golden.json: %v", err))
	}
	return &g, !opt.smoke && opt.seed == g.Seed
}

// check compares a workload's first repetition — and, on a traced run,
// the drivers' exact counts in layers — with the golden. It returns
// "match" or "mismatch: <what differs>".
func (g *goldenFile) check(name string, first repOut, layers map[string]float64) string {
	var diff []string
	want, ok := g.Workloads[name]
	switch {
	case !ok:
		diff = append(diff, "workload not in golden.json")
	case want.Digest != first.digest:
		diff = append(diff, fmt.Sprintf("digest %.12s != %.12s (sim_us %v vs %v, sim.events %d vs %d)",
			first.digest, want.Digest, first.simUS, want.SimUS, first.events, want.Events))
	}
	for k, v := range layers {
		if w, ok := g.Layers[k]; goldenLayerMetric(k) && (!ok || w != v) {
			diff = append(diff, fmt.Sprintf("%s %v != %v", k, v, w))
		}
	}
	if len(diff) == 0 {
		return "match"
	}
	return "mismatch: " + strings.Join(diff, "; ")
}

// updateGolden rewrites the golden file at path with this run's values,
// keeping the entries of workloads not run.
func updateGolden(path string, opt runOptions, name string, first repOut, layers map[string]float64) error {
	g := goldenFile{Seed: opt.seed, Workloads: map[string]goldenWorkload{}, Layers: map[string]float64{}}
	if old, err := os.ReadFile(path); err == nil {
		var prev goldenFile
		if json.Unmarshal(old, &prev) == nil && prev.Seed == opt.seed && prev.Workloads != nil {
			g = prev
		}
	}
	g.Workloads[name] = goldenWorkload{SimUS: first.simUS, Events: first.events, Digest: first.digest}
	if opt.traced { // only a traced run has the drivers' counts
		g.Layers = map[string]float64{}
		for k, v := range layers {
			if goldenLayerMetric(k) {
				g.Layers[k] = v
			}
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
