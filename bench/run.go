package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// procStart is taken when the package initializes: setup_s runs from
// here to the first timed repetition.
var procStart = time.Now()

type runOptions struct {
	seed     uint64
	seconds  float64 // how long the repetitions of one run measure
	traced   bool    // --trace 1: the per-layer run
	smoke    bool    // test scale: <= 256 ranks, 2 repetitions
	traceOut string  // Chrome trace-event file for the harness spans
	goldenTo string  // -update-golden: rewrite this golden file instead of checking against it
}

// tracedReps is the number of repetitions run under spans and the CPU
// profile after the untraced ones.
const tracedReps = 3

// report is one workload's result: every metric by name, plus what the
// correctness checks saw.
type report struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Reps      int      `json:"reps"`
	Cells     int      `json:"cells_per_rep"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Fails     []string `json:"fails,omitempty"`
	Digest    string   `json:"digest"`
	Golden    string   `json:"golden"` // "match", "mismatch: ...", or "none" (no golden for this seed or scale)
	Metrics   []metric `json:"metrics"`
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu, sys     float64 // seconds
	minflt       int64
	maxrssKB     int64
	mallocs      uint64
	allocBytes   uint64
	gcCPU, total float64 // runtime/metrics cpu classes, seconds
}

// add accumulates the resources used between two snapshots.
func (u *usage) add(after, before usage) {
	u.cpu += after.cpu - before.cpu
	u.sys += after.sys - before.sys
	u.minflt += after.minflt - before.minflt
	u.mallocs += after.mallocs - before.mallocs
	u.allocBytes += after.allocBytes - before.allocBytes
	u.gcCPU += after.gcCPU - before.gcCPU
	u.total += after.total - before.total
}

func snapshot() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpu: tv(ru.Utime) + tv(ru.Stime), sys: tv(ru.Stime),
		minflt: ru.Minflt, maxrssKB: ru.Maxrss,
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCPU: s[0].Value.Float64(), total: s[1].Value.Float64(),
	}
}

// runWorkload measures one workload in this process: set-up and an
// untimed warm-up repetition, then either the timed repetitions (tracing
// off) that give the end-to-end metrics, or the traced run that gives the
// per-layer ones. Every repetition's outputs and digest are checked.
func runWorkload(w workload, opt runOptions) (*report, error) {
	in := w.build(opt.seed, opt.smoke)
	rep := &report{Name: w.name, Why: w.why, Seed: opt.seed, Traced: opt.traced, Cells: len(in.cells), Golden: "none"}

	first := in.repetition(nil, -1) // warm-up: pools, page faults and lazy tables stay out of the timings
	setup := time.Since(procStart).Seconds()
	rep.Digest = first.digest
	digestOK := true
	account := func(r repOut) {
		rep.Attempted += r.cells
		rep.Failed += r.failed
		for _, f := range r.fails {
			if len(rep.Fails) < 8 {
				rep.Fails = append(rep.Fails, f)
			}
		}
		digestOK = digestOK && r.digest == first.digest
	}
	account(first)

	// vals holds the per-layer values by name. The workload's own virtual
	// metrics and failed_share are per-layer metrics for the contract, but an
	// untraced document carries them too so -compare can hold them exact.
	vals, valN := map[string]float64{}, map[string]int{}
	if opt.traced {
		var err error
		if vals, valN, err = tracedRun(w, in, opt, account); err != nil {
			return nil, err
		}
		for _, spec := range virtualExact {
			vals[spec.Name] = notApplicable
		}
		vals["sim.digest_match_golden"] = notApplicable
	} else {
		host := timedRun(w, in, opt, account)
		host["setup_s"], host["sim_us"] = []float64{setup}, []float64{first.simUS}
		rep.Reps = len(host["wall_s"])
		for _, spec := range endToEnd {
			rep.Metrics = append(rep.Metrics, newMetric(spec, "end_to_end", host[spec.Name]...))
		}
	}
	vals["failed_share"] = float64(rep.Failed) / float64(rep.Attempted)
	for k, v := range first.extras {
		vals[k] = v
	}

	if opt.goldenTo != "" {
		if err := updateGolden(opt.goldenTo, opt, w.name, first, vals); err != nil {
			return nil, err
		}
	} else if g, ok := goldenFor(opt); ok {
		rep.Golden = g.check(w.name, first, vals)
		if opt.traced {
			vals["sim.digest_match_golden"] = 0
			if rep.Golden == "match" {
				vals["sim.digest_match_golden"] = 1
			}
		}
	}

	for _, spec := range perLayer {
		v, ok := vals[spec.Name]
		if !ok && opt.traced {
			return nil, fmt.Errorf("per-layer metric %s was not measured", spec.Name)
		} else if !ok {
			continue
		}
		m := newMetric(spec, "per_layer", v)
		if n, ok := valN[spec.Name]; ok {
			m.N = n
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	rep.Correct = rep.Failed == 0 && digestOK
	if !digestOK {
		rep.Fails = append(rep.Fails, "virtual-time digest changed between repetitions")
	}
	return rep, nil
}

// timedRun runs whole repetitions, tracing off, until the workload's floor
// is met and opt.seconds are used, and returns the samples of the
// host-time end-to-end metrics by name.
func timedRun(w workload, in *instance, opt runOptions, account func(repOut)) map[string][]float64 {
	floor, budget := w.reps, opt.seconds
	if opt.smoke {
		floor, budget = 2, 0
	}
	var walls, cpus []float64
	var mallocs uint64
	var last usage
	for start := time.Now(); len(walls) < floor || time.Since(start).Seconds() < budget; {
		runtime.GC() // every repetition starts from the same heap, so the collector's cycles fall alike in each
		before := snapshot()
		r := in.repetition(nil, -1)
		last = snapshot()
		account(r)
		walls = append(walls, r.wall)
		cpus = append(cpus, last.cpu-before.cpu)
		mallocs += last.mallocs - before.mallocs
	}
	return map[string][]float64{
		"wall_s":         walls,
		"cpu_s":          {median(cpus)},
		"peak_rss_mb":    {float64(last.maxrssKB) / 1024},
		"allocs_per_rep": {float64(mallocs) / float64(len(walls))},
	}
}

// tracedRun produces the per-layer metrics. tracedReps times it runs one
// plain repetition and then one with a harness span around every cell
// and the CPU profile on — alternating, so drift in the process hits both
// kinds alike and their ratio is the tracing overhead. Then it runs every
// layer driver. Nothing here feeds an end-to-end metric.
func tracedRun(w workload, in *instance, opt runOptions, account func(repOut)) (map[string]float64, map[string]int, error) {
	sp := newSpans()
	root := sp.begin("workload:"+w.name, -1)
	var (
		plain, traced []float64
		samples       []profSample
		events        uint64
		simUS, wall   float64 // summed over the traced repetitions
		used          usage   // resources of the traced repetitions only
	)
	for i := 0; i < tracedReps; i++ {
		runtime.GC()
		r := in.repetition(nil, -1)
		account(r)
		plain = append(plain, r.wall)

		var prof bytes.Buffer
		runtime.GC()
		before := snapshot()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, fmt.Errorf("start CPU profile: %w", err)
		}
		id := sp.begin(fmt.Sprintf("rep:%d", i), root)
		r = in.repetition(sp, id)
		sp.end(id)
		pprof.StopCPUProfile()
		used.add(snapshot(), before)
		account(r)
		traced = append(traced, r.wall)
		wall += r.wall
		events += r.events
		simUS += r.simUS
		s, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, nil, fmt.Errorf("decode CPU profile: %w", err)
		}
		samples = append(samples, s...)
	}
	sp.end(root)

	lroot := sp.begin("layers", -1)
	vals, ns := runLayerDrivers(sp, lroot, opt.seed, opt.smoke)
	sp.end(lroot)

	ev := float64(events)
	vals["sim.events"] = ev / tracedReps
	vals["sim.events_per_s"] = ev / wall
	vals["host.ns_per_sim_us"] = wall * 1e9 / simUS
	vals["host.allocs_per_event"] = float64(used.mallocs) / ev
	vals["host.alloc_bytes_per_event"] = float64(used.allocBytes) / ev
	vals["host.gc_cpu_share"] = used.gcCPU / used.total
	vals["host.sys_share"] = used.sys / used.cpu
	vals["host.minor_faults_per_event"] = float64(used.minflt) / ev
	vals["trace.run_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	ns["trace.run_overhead_pct"] = tracedReps
	for c, s := range foldProfile(samples) {
		vals["share."+c] = s
	}
	if opt.traceOut != "" {
		js, err := sp.chromeJSON("bench " + w.name)
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(opt.traceOut, js, 0o644); err != nil {
			return nil, nil, err
		}
	}
	return vals, ns, nil
}
