package main

import "sort"

// metricSpec names one metric of the benchmark. The lists below are the
// source BENCHMARK.json is checked against (bench_test.go): a metric is
// emitted if and only if it is listed here.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics every workload reports from its untraced
// repetitions. The host-time bounds are the widest the contract allows:
// on the 2-core sandbox a pure pointer-chasing loop varies by +-13 % from
// second to second, ten runs with ten seeds spread by up to 0.15
// (quartile distance over median), and two such sets taken twenty minutes
// apart differed by up to 15 % in their medians (README,
// "Repeatability"). allocs_per_rep and sim_us repeat almost exactly for
// one seed; their bounds cover the spread between seeds, which move the
// roots and the fault schedules.
var endToEnd = []metricSpec{
	{"wall_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"allocs_per_rep", "count", lower, 0.05},
	{"setup_s", "s", lower, 0.25},
	{"sim_us", "us", lower, 0.05},
}

// virtualExact are the workload-specific virtual-time and accuracy
// metrics. They are deterministic for a seed, so -compare holds them to
// bound 0. They are reported with the per-layer metrics because each
// exists on one workload only (-1 elsewhere) and failed_share and
// paper_band_gap_pts are 0 on a healthy run.
var virtualExact = []metricSpec{
	{"failed_share", "ratio", lower, 0},
	{"srm_gain_min_pct", "%", higher, 0},
	{"paper_band_gap_pts", "points", lower, 0},
	{"hidden_pct", "%", higher, 0},
	{"step_us", "us", lower, 0},
	{"recovery_us", "us", lower, 0},
}

// notApplicable is the value of a per-layer metric on a workload where
// it has no meaning (hidden_pct on rank_ladder, the golden match on a
// seed with no golden). Every real value of those metrics is >= 0.
const notApplicable = -1

// perLayer lists the traced run's metrics: the workload-specific virtual
// metrics, the layer drivers (part A), and the per-workload host numbers
// and profile shares (part B).
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := append([]metricSpec(nil), virtualExact...)
	for i := range m {
		m[i].Bound = 0
	}
	m = append(m,
		// sim
		metricSpec{"sim.queue_tie_ns", "ns", lower, 0},
		metricSpec{"sim.queue_spread_ns", "ns", lower, 0},
		metricSpec{"sim.queue_far_ns", "ns", lower, 0},
		metricSpec{"sim.proc_switch_ns", "ns", lower, 0},
		metricSpec{"sim.task_switch_ns", "ns", lower, 0},
		metricSpec{"sim.cond_wake_proc_ns", "ns", lower, 0},
		metricSpec{"sim.cond_wake_task_ns", "ns", lower, 0},
		metricSpec{"sim.task_bytes", "B", lower, 0},
		metricSpec{"sim.proc_bytes", "B", lower, 0},
		// machine
		metricSpec{"machine.charge_copy_proc_ns", "ns", lower, 0},
		metricSpec{"machine.charge_copy_task_ns", "ns", lower, 0},
		metricSpec{"machine.memcpy_gbps", "GB/s", higher, 0},
		metricSpec{"machine.net_inject_ns", "ns", lower, 0},
		// shm
		metricSpec{"shm.flag_pingpong_proc_ns", "ns", lower, 0},
		metricSpec{"shm.flag_pingpong_task_ns", "ns", lower, 0},
		metricSpec{"shm.flagset_waitall_proc_ns", "ns", lower, 0},
		metricSpec{"shm.flagset_waitall_task_ns", "ns", lower, 0},
		// rma
		metricSpec{"rma.put_rt_proc_ns", "ns", lower, 0},
		metricSpec{"rma.put_rt_task_ns", "ns", lower, 0},
		metricSpec{"rma.put_large_gbps", "GB/s", higher, 0},
		metricSpec{"rma.reliable_put_ns", "ns", lower, 0},
		metricSpec{"rma.retries_per_put", "ratio", lower, 0},
		// bufpool
		metricSpec{"bufpool.get_put_ns", "ns", lower, 0},
		metricSpec{"bufpool.hit_ratio", "ratio", higher, 0},
		// mpi, baseline
		metricSpec{"mpi.eager_rt_ns", "ns", lower, 0},
		metricSpec{"mpi.rndv_rt_ns", "ns", lower, 0},
		metricSpec{"baseline.bcast_4k_ns_per_event", "ns", lower, 0},
		// dtype
		metricSpec{"dtype.reduce_f64_gbps", "GB/s", higher, 0},
		metricSpec{"dtype.reduce_i64_gbps", "GB/s", higher, 0},
		// tree, tune
		metricSpec{"tree.new_binomial_ns_per_node.n16", "ns", lower, 0},
		metricSpec{"tree.new_binomial_ns_per_node.n128k", "ns", lower, 0},
		metricSpec{"tree.new_multilevel_ns_per_node", "ns", lower, 0},
		metricSpec{"tune.lookup_ns", "ns", lower, 0},
	)
	for _, rg := range coreRegimes {
		m = append(m,
			metricSpec{"core." + rg.name + ".proc_ns_per_event", "ns", lower, 0},
			metricSpec{"core." + rg.name + ".task_ns_per_event", "ns", lower, 0},
			metricSpec{"core." + rg.name + ".events", "count", lower, 0},
		)
	}
	m = append(m,
		// scale
		metricSpec{"scale.events_per_s.r1k", "1/s", higher, 0},
		metricSpec{"scale.events_per_s.r4k", "1/s", higher, 0},
		metricSpec{"scale.events_per_s.r16k", "1/s", higher, 0},
		metricSpec{"scale.events_per_s.r64k", "1/s", higher, 0},
		metricSpec{"scale.ladder_decay", "ratio", lower, 0},
		metricSpec{"scale.proto_bytes_per_rank", "B", lower, 0},
		// srmcoll
		metricSpec{"srmcoll.run_setup_us_per_rank", "us", lower, 0},
		metricSpec{"srmcoll.runt_setup_us_per_rank", "us", lower, 0},
		metricSpec{"srmcoll.ireq_proc_ns", "ns", lower, 0},
		metricSpec{"srmcoll.ireq_task_ns", "ns", lower, 0},
		// trace
		metricSpec{"trace.overhead_ratio", "ratio", lower, 0},
		metricSpec{"trace.spans_per_event", "ratio", lower, 0},
		// part B: the workload's traced repetitions
		metricSpec{"sim.events", "count", lower, 0},
		metricSpec{"sim.events_per_s", "1/s", higher, 0},
		metricSpec{"host.ns_per_sim_us", "ns", lower, 0},
		metricSpec{"host.allocs_per_event", "count", lower, 0},
		metricSpec{"host.alloc_bytes_per_event", "B", lower, 0},
		metricSpec{"host.gc_cpu_share", "ratio", lower, 0},
		metricSpec{"host.sys_share", "ratio", lower, 0},
		metricSpec{"host.minor_faults_per_event", "count", lower, 0},
		metricSpec{"sim.digest_match_golden", "count", higher, 0},
		metricSpec{"trace.run_overhead_pct", "%", lower, 0},
	)
	for _, c := range foldClasses {
		m = append(m, metricSpec{"share." + c, "ratio", lower, 0})
	}
	return m
}

// metric is one reported value. Timings carry the repetitions they are
// the median of; n is the sample count behind value.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Kind    string    `json:"kind"` // "end_to_end" or "per_layer"
	N       int       `json:"n"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples,omitempty"`
}

// newMetric summarizes samples as median, min and max. No higher
// percentile is reported: with 7-9 repetitions none has ten samples
// beyond it.
func newMetric(spec metricSpec, kind string, samples ...float64) metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := metric{Name: spec.Name, Unit: spec.Unit, Better: spec.Better, Kind: kind, N: len(s), Value: median(s), Min: s[0], Max: s[len(s)-1]}
	if len(s) > 1 {
		m.Samples = samples
	}
	return m
}
