// Command bench is the repository's benchmark: four closed-loop
// workloads on the simulator, host-time and virtual-time end-to-end
// metrics, and a traced run that splits host time by layer. See
// README.md in this directory, and BENCHMARK.json at the repository root
// for the contract a driver runs it under:
//
//	bash bench/run.sh --workload fig_grid --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all             # every workload, one fresh process each
//	bash bench/run.sh -compare A.json B.json     # regression check between two documents
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

var workloads = []workload{
	{name: "fig_grid", reps: 7, build: buildFigGrid,
		why: "Proc engine, 256 ranks, SRM vs both MPI baselines plus a tuned hierarchical slice: goroutine hand-off, memmove, dtype, tree, mpi, baseline, tune"},
	{name: "rank_ladder", reps: 7, build: buildRankLadder,
		why: "Task engine, 65,536 ranks, 64-byte payloads through scale and core: event queue under timestamp ties, Task switches, pooled frames, GC; no goroutines or payload bytes"},
	{name: "train_overlap", reps: 7, build: buildTrainOverlap,
		why: "Request streams with tracing on, 64 ranks, four allreduce families on 64-256 KiB buckets: real bytes through dtype and memmove, request helper procs, span recording"},
	{name: "fault_storm", reps: 9, build: buildFaultStorm,
		why: "Crash, stall and drop schedules with shrink/agree repair plus a lossy 16k-rank run: detector, interrupts and kills, reliable-delivery timers far in the future of the event queue"},
}

// document is everything one invocation prints: the environment, then
// per workload every metric by name with unit, direction and sample
// count. A benchmark defines the yardstick and claims nothing, so the
// document ends with "claim": null.
type document struct {
	Schema    string      `json:"schema"`
	Env       environment `json:"env"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Workloads []*report   `json:"workloads"`
	Claim     *string     `json:"claim"`
}

// contractLine is the last line of standard output, in the shape the
// benchmark contract fixes.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: fig_grid, rank_ladder, train_overlap, fault_storm, or all")
		seed         = flag.Uint64("seed", 1, "derives payloads, roots and every fault schedule")
		seconds      = flag.Float64("seconds", 20, "time the timed repetitions fill (never fewer than the workload's floor)")
		traced       = flag.Int("trace", 0, "1: report the per-layer metrics from a traced run instead of the end-to-end ones")
		traceOut     = flag.String("trace-out", "", "with -trace 1: write the harness spans as a Chrome trace-event file")
		out          = flag.String("out", "", "also write the JSON document to this file")
		smoke        = flag.Bool("smoke", false, "test scale: at most 256 ranks and 2 repetitions; numbers are not comparable")
		compare      = flag.Bool("compare", false, "compare two documents: bench -compare A.json B.json")
		golden       = flag.String("update-golden", "", "rewrite this golden file (bench/golden.json) from the run instead of checking against it")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	opt := runOptions{seed: *seed, seconds: *seconds, traced: *traced == 1, smoke: *smoke, traceOut: *traceOut, goldenTo: *golden}
	if *traced != 0 && *traced != 1 {
		fatal(2, "-trace takes 0 or 1")
	}
	setProcs()
	doc := document{Schema: "srmcoll-bench/1", Env: captureEnv(), Seed: *seed, Seconds: *seconds}

	if *workloadName == "all" {
		// One fresh process per workload: peak RSS, heap state and page-fault
		// history never leak from one workload into the next.
		for _, w := range workloads {
			rep, err := runChild(w.name, opt)
			if err != nil {
				fatal(1, "%s: %v", w.name, err)
			}
			doc.Workloads = append(doc.Workloads, rep)
		}
	} else {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(2, "unknown workload %q", *workloadName)
		}
		rep, err := runWorkload(w, opt)
		if err != nil {
			fatal(1, "%s: %v", w.name, err)
		}
		doc.Workloads = []*report{rep}
	}
	doc.Env.finish(doc.Workloads)

	js, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		fatal(1, "%v", err)
	}
	js = append(js, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fatal(1, "%v", err)
		}
	}
	os.Stdout.Write(js)
	line, err := json.Marshal(contract(doc.Workloads, opt.traced))
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("%s\n", line)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// contract reduces the reports to the contract's line: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one. With
// several workloads the metric names are prefixed by the workload's.
func contract(reports []*report, traced bool) contractLine {
	kind := "end_to_end"
	if traced {
		kind = "per_layer"
	}
	line := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	for _, r := range reports {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(reports) > 1 {
				name = r.Name + "/" + name
			}
			if m.Kind == kind {
				line.Metrics[name] = contractValue{m.Value, m.Unit}
			}
		}
	}
	return line
}

// runChild re-executes this binary for one workload and decodes the
// document it prints.
func runChild(name string, opt runOptions) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64)}
	if opt.traced {
		args = append(args, "-trace", "1")
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	if opt.goldenTo != "" {
		args = append(args, "-update-golden", opt.goldenTo)
	}
	if opt.traceOut != "" {
		args = append(args, "-trace-out", opt.traceOut+"."+name)
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var doc document
	if err := json.NewDecoder(&stdout).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode child document: %w", err)
	}
	if len(doc.Workloads) != 1 {
		return nil, fmt.Errorf("child printed %d workloads", len(doc.Workloads))
	}
	return doc.Workloads[0], nil
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
