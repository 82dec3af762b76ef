// Command srmbench regenerates the paper's evaluation from the simulator:
// every figure, table and ablation, the campaigns behind CI's artifacts, the
// Figure 1 tree embedding and the substrate latencies, one subcommand per
// mode. Run it without arguments for the list, and "srmbench fig -h" for one
// subcommand's flags, which come before its operands ("srmbench fig -quick 9").
// A bad argument exits 2 before anything runs; a failed run exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"srmcoll"
	"srmcoll/internal/exp"
	"srmcoll/internal/machine"
	"srmcoll/internal/mpi"
	"srmcoll/internal/plot"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/tree"
)

// command is one subcommand: the flag groups it takes, what its operands and
// flag values must pass before anything runs (check, when set), and the run.
type command struct {
	name, operands, what string
	flags                int
	check, run           func(o *opts, args []string) error
}

// The flag groups; a subcommand is given the groups it names and no others.
const (
	sweeps      = 1 << iota // -quick, -j: it runs a sweep on the worker pool
	tables                  // -csv, -plot: it prints tables
	report                  // -json: it can write its report as JSON
	opFlag                  // -op
	topoFlag                // -topo
	treeFlags               // -nodes, -tpn, -root, -kind
	viaFlag                 // -via
	recordFlags             // -workload, -seeds, -seconds, -reps, -smoke, -check
	divergeFlag             // -record
)

var commands = []command{
	{"fig", "NAME...", "figures and summaries: " + figs.names(), sweeps | tables, figs.check, figs.run},
	{"ablation", "NAME...", "design-choice ablations: " + abls.names(), sweeps | tables, abls.check, abls.run},
	{"ranks", "N", "one verified collective at N ranks on the state-machine engine", opFlag, checkRanks, ranks},
	{"tune", "", "per-tree crossover curves; with -json, the autotuner's decision table", sweeps | tables | report | topoFlag, nil, tune},
	{"train", "", "ML-training step time and hidden communication per allreduce family", sweeps | tables | report, nil, train},
	{"chaos", "", "the fault-tolerance chaos campaign; exits 1 on any non-clean run", sweeps | tables | report, nil, chaos},
	{"overlap", "", "the non-blocking overlap table; with -json, its report", sweeps | tables | report, nil, overlap},
	{"trace", "FILE", "trace a basket of collectives to Chrome trace-event JSON", sweeps, nil, trace},
	{"tree", "", "a tree embedded in an SMP cluster, and one 4 KB broadcast over it", treeFlags, checkTree, treeRun},
	{"lat", "", "substrate microbenchmarks", viaFlag, nil, lat},
	{"diverge", "N [FILE]", "a ranks run's event stream: -record FILE writes it; given FILE, the run is replayed against it and the first event that differs named", opFlag | divergeFlag, checkDiverge, diverge},
	{"record", "DIR...", "run bench/run.sh in each checkout and append a row per (commit, workload, seed) to the trajectory; -check compares instead", recordFlags, checkRecord, record},
}

// opts holds the flag values and where output goes.
type opts struct {
	quick, csv, plot, via            bool
	jobs, nodes, tpn, root           int
	json, op, topo, cpuprof, memprof string
	stream                           string // diverge's -record
	kind                             tree.Kind
	w                                io.Writer

	// record
	workload, seeds string
	seconds         float64
	reps            int
	smoke, check    bool
}

// register gives fs the flags of the groups in set, and the profile flags
// every subcommand takes: it is where srmbench declares all its flags.
func (o *opts) register(fs *flag.FlagSet, set int) {
	if set&sweeps != 0 {
		fs.BoolVar(&o.quick, "quick", false, "use a scaled-down sweep")
		fs.IntVar(&o.jobs, "j", runtime.GOMAXPROCS(0), "concurrent sweep workers; results are byte-identical at any value (1 = serial)")
	}
	if set&tables != 0 {
		fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned text")
		fs.BoolVar(&o.plot, "plot", false, "render figures as terminal charts in addition to tables")
	}
	if set&report != 0 {
		fs.StringVar(&o.json, "json", "", "write the JSON report to this file")
	}
	if set&opFlag != 0 {
		fs.StringVar(&o.op, "op", "allreduce", "collective: allreduce (the scale core), bcast or barrier (Task-native collectives)")
	}
	if set&topoFlag != 0 {
		fs.Func("topo", "hierarchical topology NxT[/leaf[/g1...]] (e.g. 12x8/3): the crossover curves' shape, or the one shape -json tunes", func(s string) error {
			_, err := srmcoll.ParseTopo(s)
			o.topo = s
			return err
		})
	}
	if set&treeFlags != 0 {
		fs.IntVar(&o.nodes, "nodes", 8, "SMP nodes in the cluster")
		fs.IntVar(&o.tpn, "tpn", 16, "tasks per node")
		fs.IntVar(&o.root, "root", 0, "root rank of the collective")
		fs.Func("kind", "tree kind: binomial (the default), binary, fibonacci, flat, multilevel or bine", func(s string) (err error) {
			o.kind, err = tree.ParseKind(s)
			return err
		})
	}
	if set&viaFlag != 0 {
		fs.BoolVar(&o.via, "via", false, "use the VIA-class commodity preset instead of ColonySP")
	}
	if set&recordFlags != 0 {
		fs.StringVar(&o.workload, "workload", "all", "benchmark workloads, comma-separated: "+strings.Join(workloads, ", ")+" or all")
		fs.StringVar(&o.seeds, "seeds", "1", "benchmark seeds, comma-separated")
		fs.Float64Var(&o.seconds, "seconds", 20, "the benchmark's --seconds")
		fs.IntVar(&o.reps, "reps", 1, "untraced runs of each workload per checkout (1 with -check); one traced run follows")
		fs.BoolVar(&o.smoke, "smoke", false, "the benchmark's test scale (--smoke)")
		fs.BoolVar(&o.check, "check", false, "compare the gated columns with the trajectory's last row and write nothing")
	}
	if set&divergeFlag != 0 {
		fs.StringVar(&o.stream, "record", "", "write the run's event stream to this file instead of comparing")
	}
	fs.StringVar(&o.cpuprof, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memprof, "memprofile", "", "write a pprof heap profile at exit to this file")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is srmbench over the given arguments and output; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	job, code := parse(args, stdout, stderr)
	if job == nil {
		return code
	}
	if err := job(); err != nil {
		fmt.Fprintf(stderr, "srmbench: %v\n", err)
		return 1
	}
	return 0
}

// parse resolves a command line to the work it names, running nothing. On a
// bad argument it reports the problem on stderr and returns exit status 2.
func parse(args []string, stdout, stderr io.Writer) (func() error, int) {
	i := slices.IndexFunc(commands, func(c command) bool { return len(args) > 0 && c.name == args[0] })
	if i < 0 {
		problem := "no subcommand"
		if len(args) > 0 {
			problem = fmt.Sprintf("unknown subcommand %q", args[0])
		}
		fmt.Fprintf(stderr, "srmbench: %s\nusage: srmbench SUBCOMMAND [flags] [operands]\n", problem)
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-8s %-8s %s\n", c.name, c.operands, c.what)
		}
		return nil, 2
	}
	c := commands[i]
	fs := flag.NewFlagSet("srmbench "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s\n  %s\n", strings.TrimSpace(fs.Name()+" [flags] "+c.operands), c.what)
		fs.PrintDefaults()
	}
	o := &opts{jobs: 1, w: stdout}
	o.register(fs, c.flags)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2 // the flag package has reported it, with the usage
	}
	var err error
	switch most := len(strings.Fields(c.operands)); {
	case fs.NArg() > most && !strings.HasSuffix(c.operands, "..."):
		err = fmt.Errorf("unexpected argument %q", fs.Arg(most))
	case fs.NArg() == 0 && most > 0:
		err = fmt.Errorf("missing %s", c.operands)
	case o.jobs < 1:
		err = fmt.Errorf("-j must be >= 1, got %d", o.jobs)
	case c.check != nil:
		err = c.check(o, fs.Args())
	}
	if err != nil {
		fmt.Fprintf(stderr, "srmbench %s: %v\n", c.name, err)
		fs.Usage()
		return nil, 2
	}
	return func() error {
		exp.SetWorkers(o.jobs)
		return o.profiled(func() error { return c.run(o, fs.Args()) })
	}, 0
}

// profiled runs job under the profiles the flags ask for.
func (o *opts) profiled(job func() error) (err error) {
	if o.cpuprof != "" {
		f, cerr := os.Create(o.cpuprof)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			return errors.Join(cerr, f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if err := job(); err != nil || o.memprof == "" {
		return err
	}
	f, err := os.Create(o.memprof)
	if err != nil {
		return err
	}
	runtime.GC() // report live heap, not garbage
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}

// scaled returns full(), or small() under -quick.
func scaled[T any](o *opts, full, small func() T) T {
	if o.quick {
		return small()
	}
	return full()
}

// emit prints tables as aligned text or CSV, each followed by its chart
// under -plot.
func (o *opts) emit(ts ...*exp.Table) {
	for _, t := range ts {
		if o.csv {
			fmt.Fprint(o.w, t.CSV())
		} else {
			fmt.Fprintln(o.w, t.Text())
		}
		if o.plot {
			x, ys := t.XY()
			series := make([]plot.Series, len(ys))
			for i := range ys {
				series[i] = plot.Series{Name: t.Cols[1+i], Y: ys[i]}
			}
			fmt.Fprintln(o.w, plot.Render(x, series, plot.Options{
				Title: t.ID + " — " + t.Title,
				LogX:  t.LogX,
				LogY:  t.LogY,
			}))
		}
	}
}

// save writes data, or v as indented JSON, to path and says so: it is how
// srmbench writes every file. An empty path writes nothing.
func (o *opts) save(path string, v any) error {
	if path == "" {
		return nil
	}
	data, ok := v.([]byte)
	if !ok {
		var err error
		if data, err = json.MarshalIndent(v, "", "  "); err != nil {
			return err
		}
		data = append(data, '\n')
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(o.w, "wrote %s\n", path)
	return nil
}

// entry is one name of a menu, run over the sweep's grid.
type entry struct {
	name string
	run  func(o *opts, g exp.Grid)
}

// menu is the names fig or ablation runs: "all" is every entry of all, and
// the entries of more run only when named.
type menu struct{ all, more []entry }

// figs are Figures 2 and 6-12, then the headline bands and the extension
// collectives.
var figs = menu{[]entry{
	{"2", func(o *opts, _ exp.Grid) { o.emit(exp.Fig2()) }},
	{"6", absolute(exp.Bcast)},
	{"7", absolute(exp.Reduce)},
	{"8", absolute(exp.Allreduce)},
	{"9", ratios(exp.Bcast)},
	{"10", ratios(exp.Reduce)},
	{"11", ratios(exp.Allreduce)},
	{"12", func(o *opts, g exp.Grid) { o.emit(exp.Fig12(g)) }},
}, []entry{
	{"headline", func(o *opts, g exp.Grid) { fmt.Fprint(o.w, exp.HeadlineText(exp.Headline(g))) }},
	{"extension", func(o *opts, g exp.Grid) { o.emit(exp.Extension(g)) }},
}}

// absolute is Figures 6-8: the SRM times, then SRM against both MPIs at
// small sizes.
func absolute(op exp.Op) func(*opts, exp.Grid) {
	return func(o *opts, g exp.Grid) { o.emit(exp.FigAbsolute(g, op), exp.FigCompareSmall(g, op)) }
}

// ratios is Figures 9-11: SRM as a percentage of IBM MPI and of MPICH.
func ratios(op exp.Op) func(*opts, exp.Grid) {
	return func(o *opts, g exp.Grid) {
		o.emit(exp.FigRatio(g, op, srmcoll.IBMMPI), exp.FigRatio(g, op, srmcoll.MPICHMPI))
	}
}

var abls = menu{all: []entry{
	{"trees", func(o *opts, g exp.Grid) {
		o.emit(exp.AblationTrees(g, exp.Bcast), exp.AblationTrees(g, exp.Reduce))
	}},
	{"smpbcast", func(o *opts, g exp.Grid) { o.emit(exp.AblationSMPBcast(g)) }},
	{"yield", func(o *opts, g exp.Grid) { o.emit(exp.AblationYield(g, exp.Bcast)) }},
	{"chunks", func(o *opts, g exp.Grid) { o.emit(exp.AblationChunks(g)) }},
	{"eager", func(o *opts, g exp.Grid) { o.emit(exp.AblationEager(g)) }},
	{"interrupts", func(o *opts, g exp.Grid) {
		o.emit(exp.AblationInterrupts(g, exp.Bcast), exp.AblationInterrupts(g, exp.Reduce))
	}},
	{"late", func(o *opts, g exp.Grid) { o.emit(exp.AblationLateArrival(g)) }},
	{"15of16", func(o *opts, g exp.Grid) { o.emit(exp.AblationFifteenOfSixteen(g)) }},
	{"daemons", func(o *opts, g exp.Grid) { o.emit(exp.AblationDaemons(g)) }},
	{"model", func(o *opts, g exp.Grid) { fmt.Fprint(o.w, exp.ModelText(exp.AblationModel(g))) }},
	{"overlap", func(o *opts, g exp.Grid) { o.emit(exp.AblationOverlap(g)) }},
}}

func (m menu) entries() []entry { return append(slices.Clip(m.all), m.more...) }

func (m menu) names() string {
	var names []string
	for _, e := range m.entries() {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ") + " or all"
}

// pick returns the entries args name, in the order named.
func (m menu) pick(args []string) ([]entry, error) {
	var picked []entry
	for _, a := range args {
		if a == "all" {
			picked = append(picked, m.all...)
			continue
		}
		known := m.entries()
		i := slices.IndexFunc(known, func(e entry) bool { return e.name == a })
		if i < 0 {
			return nil, fmt.Errorf("unknown name %q", a)
		}
		picked = append(picked, known[i])
	}
	return picked, nil
}

func (m menu) check(_ *opts, args []string) error {
	_, err := m.pick(args)
	return err
}

func (m menu) run(o *opts, args []string) error {
	picked, err := m.pick(args)
	if err != nil {
		return err
	}
	g := scaled(o, exp.DefaultGrid, exp.QuickGrid)
	for _, e := range picked {
		e.run(o, g)
	}
	return nil
}

func checkRanks(o *opts, args []string) error {
	if o.op != "allreduce" && o.op != "bcast" && o.op != "barrier" {
		return fmt.Errorf("unknown -op %q (want allreduce, bcast or barrier)", o.op)
	}
	if n, err := strconv.Atoi(args[0]); err != nil || n < 1 {
		return fmt.Errorf("rank count %q: want an integer >= 1", args[0])
	}
	return nil
}

// ranks runs one verified collective at N ranks on the state-machine engine,
// 8 tasks per node when N allows and flat otherwise.
func ranks(o *opts, args []string) error {
	n, _ := strconv.Atoi(args[0]) // checkRanks has parsed it
	nodes, tpn := n, 1
	if n%8 == 0 {
		nodes, tpn = n/8, 8
	}
	cl, err := srmcoll.NewCluster(srmcoll.ColonySP(nodes, tpn))
	if err != nil {
		return err
	}
	var bufs [][]byte
	note := ""
	if o.op == "bcast" {
		bufs, note = make([][]byte, n), ", verified" // checked below
		for i := range bufs {
			bufs[i] = make([]byte, 64)
		}
		for j := range bufs[0] {
			bufs[0][j] = byte(j + 1) // the root's payload
		}
	}
	var sim float64
	var events uint64
	allocs := heapAllocs()
	start := time.Now()
	if o.op == "allreduce" {
		res, err := cl.ScaleAllreduce(srmcoll.ScaleOptions{Bytes: 64, Reps: 1, Verify: true})
		if err != nil {
			return err
		}
		sim, events, note = res.Time, res.Events, fmt.Sprintf(", %.0f proto bytes/rank, verified", res.ProtoBytesPerRank())
	} else {
		// bcast and barrier are the Task-native collectives through the
		// public CPS API: one state machine per rank, no goroutine stacks.
		res, err := cl.RunT(srmcoll.SRM, func(tc *srmcoll.TComm, done func()) {
			fin := func(error) { done() } // only fault tolerance hands a collective an error
			if bufs == nil {
				tc.Barrier(fin)
				return
			}
			tc.Bcast(bufs[tc.Rank()], 0, fin)
		})
		if err != nil {
			return err
		}
		sim, events = res.Time, res.Events
	}
	wall := time.Since(start)
	perRank := float64(heapAllocs()-allocs) / float64(n)
	for r, buf := range bufs {
		if !bytes.Equal(buf, bufs[0]) {
			return fmt.Errorf("bcast rank %d received %v, want %v", r, buf, bufs[0])
		}
	}
	fmt.Fprintf(o.w, "ranks %d (%d nodes x %d tasks) %s: sim %.1f us, %d events, wall %s, %.0f events/sec, %.0f heap bytes/rank allocated%s, max RSS %.1f MiB\n",
		n, nodes, tpn, o.op, sim, events, wall, float64(events)/wall.Seconds(), perRank, note, maxRSSMiB())
	return nil
}

// heapAllocs returns the bytes the process has allocated on the heap so far
// (runtime/metrics' /gc/heap/allocs:bytes): what a run allocated is the
// difference of two readings around it, a cold run's slabs included.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tune prints the per-tree crossover curves on one hierarchical shape, or
// with -json runs the (op, size, topology) autotuner and writes its decision
// table.
func tune(o *opts, _ []string) error {
	tc := scaled(o, exp.DefaultTuneConfig, exp.QuickTuneConfig)
	if o.json == "" {
		spec := o.topo
		if spec == "" {
			spec = tc.Topos[1] // the grid's non-power-of-two shape
		}
		tabs, err := exp.FigCrossover(tc, spec)
		o.emit(tabs...)
		return err
	}
	if o.topo != "" {
		tc.Topos = []string{o.topo}
	}
	tbl, err := exp.RunTune(tc)
	if err != nil {
		return err
	}
	data, err := tbl.Marshal()
	if err != nil {
		return err
	}
	return o.save(o.json, data)
}

func train(o *opts, _ []string) error {
	tc := scaled(o, exp.DefaultTrainConfig, exp.QuickTrainConfig)
	rep, err := exp.RunTrain(tc)
	if err != nil {
		return err
	}
	if err := o.save(o.json, rep); err != nil {
		return err
	}
	o.emit(exp.FigTrain(tc, rep)...)
	fmt.Fprint(o.w, exp.TrainHeadline(rep))
	return nil
}

func chaos(o *opts, _ []string) error {
	rep := exp.RunChaos(scaled(o, exp.DefaultChaosConfig, exp.QuickChaosConfig))
	if err := o.save(o.json, rep); err != nil {
		return err
	}
	o.emit(exp.ChaosTable(rep))
	if h := rep.Hangs(); h > 0 {
		return fmt.Errorf("chaos campaign had %d non-clean runs", h)
	}
	return nil
}

func overlap(o *opts, _ []string) error {
	g := scaled(o, exp.DefaultGrid, exp.QuickGrid)
	if o.json == "" {
		o.emit(exp.AblationOverlap(g))
		return nil
	}
	return o.save(o.json, exp.RunOverlap(g))
}

func trace(o *opts, args []string) error {
	js, report, err := exp.RunTraceBasket(scaled(o, exp.DefaultGrid, exp.QuickGrid))
	if err != nil {
		return err
	}
	if err := o.save(args[0], append(js, '\n')); err != nil {
		return err
	}
	fmt.Fprint(o.w, report)
	return nil
}

func checkTree(o *opts, _ []string) error {
	if o.nodes < 1 || o.tpn < 1 {
		return fmt.Errorf("-nodes %d -tpn %d: want both >= 1", o.nodes, o.tpn)
	}
	if o.root < 0 || o.root >= o.nodes*o.tpn {
		return fmt.Errorf("root %d out of range for %d ranks", o.root, o.nodes*o.tpn)
	}
	return nil
}

// treeRun prints how a collective-communication tree embeds into an SMP
// cluster (the paper's Figure 1: a 128-processor binomial tree in an 8-node
// 16-way cluster, by default), then runs one 4 KB SRM broadcast over it to show
// where the bytes move: only the inter-node edges touch the network.
func treeRun(o *opts, _ []string) error {
	k, nodes, tpn, w := o.kind, o.nodes, o.tpn, o.w
	e := tree.Embed(nodes, tpn, k, k, o.root)
	fmt.Fprintf(w, "%d-processor %s tree embedded in a %d-node %d-way SMP cluster (Figure 1)\n\n",
		nodes*tpn, k, nodes, tpn)
	fmt.Fprintf(w, "inter-node tree over masters (rounds %d):\n", e.Inter.Rounds())
	fmt.Fprint(w, tree.Render(e.Inter, func(nd int) string {
		return fmt.Sprintf("node %d (master rank %d)", nd, e.Masters[nd])
	}))
	fmt.Fprintf(w, "\nintra-node tree on node %d (rounds %d):\n", e.Inter.Root, e.Intra[e.Inter.Root].Rounds())
	fmt.Fprint(w, tree.Render(e.Intra[e.Inter.Root], func(local int) string {
		return fmt.Sprintf("rank %d", e.Inter.Root*tpn+local)
	}))
	fmt.Fprintf(w, "\ntotal one-port rounds: %d (flat %d-rank binomial: %d)\n",
		e.Rounds(), nodes*tpn, tree.Log2Ceil(nodes*tpn))

	cl, err := srmcoll.NewCluster(srmcoll.ColonySP(nodes, tpn))
	if err != nil {
		return err
	}
	cl.SetVariant(srmcoll.Variant{InterTree: k})
	res, err := cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		_ = c.Bcast(make([]byte, 4096), o.root) // only fault tolerance hands a collective an error
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n4 KB SRM broadcast on this cluster: %.1f us, %d network puts (%d data bytes), %d shared-memory copies\n",
		res.Time, res.Stats.Puts, res.Stats.PutBytes, res.Stats.ShmCopies)
	fmt.Fprintf(w, "(the %d ranks received %d bytes total; %d/%d copies stayed inside SMP nodes)\n",
		nodes*tpn, (nodes*tpn-1)*4096, res.Stats.ShmCopies, res.Stats.TotalCopies)
	return nil
}

// lat microbenchmarks the simulated cluster's substrates, the numbers the
// cost model is calibrated around: shared-memory flag and copy latency, RMA
// put, get and atomic round trips, and MPI point-to-point under both protocol
// policies.
func lat(o *opts, _ []string) error {
	preset, name, w := machine.ColonySP, "ColonySP", o.w
	if o.via {
		preset, name = machine.ViaCluster, "ViaCluster"
	}
	var failed error
	// clock runs one simulation on a fresh two-node machine: setup spawns its
	// processes, which record a virtual time in *at.
	clock := func(setup func(env *sim.Env, m *machine.Machine, at *float64)) float64 {
		env := sim.NewEnv()
		var at float64
		setup(env, machine.New(env, preset(2, 2)), &at)
		if err := env.Run(); err != nil && failed == nil {
			failed = err
		}
		return at
	}
	put := func(n int) float64 {
		return clock(func(env *sim.Env, m *machine.Machine, at *float64) {
			d := rma.NewDomain(m)
			c := d.NewCounter(0)
			env.Spawn("recv", func(p *sim.Proc) { d.Endpoint(2).Waitcntr(p, c, 1); *at = p.Now() })
			env.Spawn("send", func(p *sim.Proc) {
				d.Endpoint(0).Put(p, d.Endpoint(2), make([]byte, n), make([]byte, n), nil, c, nil)
			})
		})
	}
	// remote times one call at rank 0 against rank 2, which stands by.
	remote := func(call func(p *sim.Proc, d *rma.Domain)) float64 {
		return clock(func(env *sim.Env, m *machine.Machine, at *float64) {
			d := rma.NewDomain(m)
			env.Spawn("o", func(p *sim.Proc) { call(p, d); *at = p.Now() })
			env.Spawn("t", func(p *sim.Proc) { d.Endpoint(2).Waitcntr(p, d.NewCounter(0), 0) })
		})
	}
	mbps := func(n int, us float64) float64 { return float64(n) / us } // bytes/us == MB/s

	fmt.Fprintf(w, "substrate microbenchmarks, %s preset (simulated us)\n\n", name)
	fmt.Fprintln(w, "shared memory (intra-node):")
	fmt.Fprintf(w, "  flag signal (store -> observe)   %8.2f\n", clock(func(env *sim.Env, m *machine.Machine, at *float64) {
		f := shm.NewFlag(m, 0)
		env.Spawn("w", func(p *sim.Proc) { f.WaitFor(p, 1); *at = p.Now() })
		env.Spawn("s", func(p *sim.Proc) { f.Set(1) })
	}))
	for _, n := range []int{8, 4096, 64 << 10, 1 << 20} {
		t := clock(func(env *sim.Env, m *machine.Machine, at *float64) {
			env.Spawn("c", func(p *sim.Proc) { m.Memcpy(p, 0, make([]byte, n), make([]byte, n)); *at = p.Now() })
		})
		fmt.Fprintf(w, "  memcpy %-8s                  %10.2f   (%7.1f MB/s)\n", fmt.Sprintf("%dB", n), t, mbps(n, t))
	}

	fmt.Fprintln(w, "\nRMA (LAPI-like, inter-node):")
	fmt.Fprintf(w, "  put latency (0B, polled)         %8.2f\n", put(0))
	for _, n := range []int{4096, 64 << 10, 1 << 20} {
		t := put(n)
		fmt.Fprintf(w, "  put %-8s                     %10.2f   (%7.1f MB/s)\n", fmt.Sprintf("%dB", n), t, mbps(n, t))
	}
	fmt.Fprintf(w, "  get round trip (8B)              %8.2f\n", remote(func(p *sim.Proc, d *rma.Domain) {
		d.Endpoint(0).GetBlocking(p, d.Endpoint(2), make([]byte, 8), make([]byte, 8))
	}))
	fmt.Fprintf(w, "  rmw fetch-and-add round trip     %8.2f\n", remote(func(p *sim.Proc, d *rma.Domain) {
		d.Endpoint(0).Rmw(p, d.Endpoint(2).NewWord(0), rma.FetchAndAdd, 1, 0)
	}))

	fmt.Fprintln(w, "\nMPI point-to-point (inter-node, 0B..rendezvous):")
	for _, proto := range []mpi.Protocol{mpi.IBM(), mpi.MPICH()} {
		for _, n := range []int{0, 4096, 64 << 10} {
			t := clock(func(env *sim.Env, m *machine.Machine, at *float64) {
				mw := mpi.NewWorld(m, proto)
				env.Spawn("recv", func(p *sim.Proc) { mw.Rank(2).Recv(p, 0, 1, make([]byte, n)); *at = p.Now() })
				env.Spawn("send", func(p *sim.Proc) { mw.Rank(0).Send(p, 2, 1, make([]byte, n)) })
			})
			mode := "eager"
			if n > proto.EagerLimit(4) {
				mode = "rndv"
			}
			fmt.Fprintf(w, "  %-8s send %-8s %-5s     %10.2f   (%7.1f MB/s)\n",
				proto.Name, fmt.Sprintf("%dB", n), mode, t, mbps(n, t))
		}
	}

	fmt.Fprintln(w, "\ncollective one-liners on 4x16 (for scale):")
	cl, err := srmcoll.NewCluster(preset(4, 16))
	if err != nil {
		return err
	}
	res, err := cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		_ = c.Barrier() // only fault tolerance hands a collective an error
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  srm barrier (64 ranks)           %8.2f\n", res.Time)
	return failed
}
