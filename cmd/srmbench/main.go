// Command srmbench regenerates the paper's evaluation tables and figures
// from the simulator. Every table or figure in the paper has a flag:
//
//	srmbench -fig 6          # Figure 6: SRM broadcast (absolute + vs MPI)
//	srmbench -fig 9          # Figure 9: broadcast ratio vs IBM MPI and MPICH
//	srmbench -fig 12         # Figure 12: barrier scaling
//	srmbench -fig 2          # Figure 2: reduce data-movement counts
//	srmbench -fig all        # everything
//	srmbench -headline       # the §1/§3 improvement bands vs the paper's
//	srmbench -ablation trees # design-choice ablations (see DESIGN.md)
//	srmbench -quick          # scaled-down grid for a fast smoke run
//	srmbench -csv            # CSV instead of aligned text
//	srmbench -j 8            # sweep worker count (output identical to -j 1)
//	srmbench -trace F        # trace a basket of collectives to Chrome JSON
//	srmbench -overlapjson F  # write the non-blocking overlap sweep to F
//	srmbench -fig chaos      # fault-tolerance chaos campaign table
//	srmbench -chaosjson F    # write the chaos-campaign report to F
//	srmbench -ranks 65536    # massive-rank allreduce smoke (state-machine engine)
//	srmbench -fig crossover  # per-tree crossover curves on a hierarchical topology
//	srmbench -topo 12x8/3    # topology shape for -fig crossover and -tunejson
//	srmbench -tunejson F     # run the autotuner, write the decision table to F
//	srmbench -fig train      # ML-training workload: step time and hidden comm per allreduce family
//	srmbench -trainjson F    # write the training-workload sweep to F
//	srmbench -cpuprofile F   # write a pprof CPU profile of the run to F
//	srmbench -memprofile F   # write a pprof heap profile at exit to F
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"srmcoll"
	"srmcoll/internal/exp"
	"srmcoll/internal/plot"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 2, 6, 7, 8, 9, 10, 11, 12, chaos, crossover, or all")
	headline := flag.Bool("headline", false, "print the headline improvement table")
	extension := flag.Bool("extension", false, "benchmark the extension collectives (gather/scatter/allgather)")
	ablation := flag.String("ablation", "", "ablation to run: trees, smpbcast, yield, chunks, eager, interrupts, late, 15of16, daemons, model, all")
	quick := flag.Bool("quick", false, "use a scaled-down sweep")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	charts := flag.Bool("plot", false, "render figures as terminal charts in addition to tables")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0),
		"concurrent sweep workers; results are byte-identical at any value (1 = serial)")
	traceOut := flag.String("trace", "",
		"trace a small basket of collectives and write Chrome trace-event JSON to this file")
	overlapjson := flag.String("overlapjson", "",
		"run the non-blocking overlap sweep and write the JSON report to this file")
	chaosjson := flag.String("chaosjson", "",
		"run the fault-tolerance chaos campaign and write the JSON report to this file")
	ranks := flag.Int("ranks", 0,
		"run one verified massive-rank collective on the state-machine engine at this many ranks")
	ranksOp := flag.String("ranks-op", "allreduce",
		"collective for -ranks: allreduce (scale core), bcast, or barrier (Task-native collectives)")
	topo := flag.String("topo", "",
		"hierarchical topology shape NxT[/leaf[/g1...]] (e.g. 12x8/3) for -fig crossover and -tunejson")
	tunejson := flag.String("tunejson", "",
		"run the (op, size, topology) autotuner and write the decision-table JSON to this file")
	trainjson := flag.String("trainjson", "",
		"run the ML-training allreduce workload sweep and write the JSON report to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	// Validate every flag before doing any work, so a typo fails fast with a
	// non-zero exit instead of surfacing mid-run (or never, for values only
	// reached after hours of sweeping).
	validFigs := map[string]bool{"": true, "2": true, "6": true, "7": true, "8": true,
		"9": true, "10": true, "11": true, "12": true, "chaos": true, "crossover": true,
		"train": true, "all": true}
	validAbls := map[string]bool{"": true, "trees": true, "smpbcast": true, "yield": true,
		"chunks": true, "eager": true, "interrupts": true, "late": true, "15of16": true,
		"daemons": true, "model": true, "overlap": true, "all": true}
	bad := false
	if !validFigs[*fig] {
		fmt.Fprintf(os.Stderr, "srmbench: unknown figure %q\n", *fig)
		bad = true
	}
	if !validAbls[*ablation] {
		fmt.Fprintf(os.Stderr, "srmbench: unknown ablation %q\n", *ablation)
		bad = true
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "srmbench: -j must be >= 1, got %d\n", *jobs)
		bad = true
	}
	if *ranks < 0 {
		fmt.Fprintf(os.Stderr, "srmbench: -ranks must be >= 0, got %d\n", *ranks)
		bad = true
	}
	validRanksOps := map[string]bool{"allreduce": true, "bcast": true, "barrier": true}
	if !validRanksOps[*ranksOp] {
		fmt.Fprintf(os.Stderr, "srmbench: unknown -ranks-op %q (want allreduce, bcast, or barrier)\n", *ranksOp)
		bad = true
	} else if *ranksOp != "allreduce" && *ranks == 0 {
		fmt.Fprintln(os.Stderr, "srmbench: -ranks-op needs -ranks to set the rank count")
		bad = true
	}
	if *topo != "" {
		// Parse eagerly so a malformed shape fails before any sweeping starts.
		if _, err := srmcoll.ParseTopo(*topo); err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			bad = true
		}
		if *fig != "crossover" && *tunejson == "" {
			fmt.Fprintln(os.Stderr, "srmbench: -topo only applies to -fig crossover and -tunejson")
			bad = true
		}
	}
	if !bad && *fig == "" && !*headline && *ablation == "" && !*extension &&
		*traceOut == "" && *overlapjson == "" && *chaosjson == "" &&
		*ranks == 0 && *tunejson == "" && *trainjson == "" {
		fmt.Fprintln(os.Stderr, "srmbench: nothing to do; pass -fig, -headline, -extension, -ablation, -overlapjson, -chaosjson, -tunejson, -trainjson, -ranks or -trace")
		bad = true
	}
	if bad {
		flag.Usage()
		os.Exit(2)
	}
	exp.SetWorkers(*jobs)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			}
		}()
	}

	if *ranks > 0 {
		// Large-rank smoke: one verified collective on the state-machine
		// engine. 8 tasks per node when the count allows, flat otherwise.
		nodes, tpn := *ranks, 1
		if *ranks%8 == 0 {
			nodes, tpn = *ranks/8, 8
		}
		cl, err := srmcoll.NewCluster(srmcoll.ColonySP(nodes, tpn))
		if err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		switch *ranksOp {
		case "allreduce":
			start := time.Now()
			res, err := cl.ScaleAllreduce(srmcoll.ScaleOptions{Bytes: 64, Reps: 1, Verify: true})
			if err != nil {
				fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
				os.Exit(1)
			}
			wall := time.Since(start)
			fmt.Printf("ranks %d (%d nodes x %d tasks) allreduce: sim %.1f us, %d events, wall %s, %.0f events/sec, %.0f proto bytes/rank, verified\n",
				nodes*tpn, nodes, tpn, res.Time, res.Events, wall,
				float64(res.Events)/wall.Seconds(), res.ProtoBytesPerRank())
		case "bcast", "barrier":
			// The ported Task-native collectives through the public CPS API:
			// one state machine per rank, no goroutine stacks.
			cl.SetEngine(srmcoll.EngineTasks)
			const n = 64
			bufs := make([][]byte, nodes*tpn)
			for i := range bufs {
				bufs[i] = make([]byte, n)
			}
			for j := range bufs[0] {
				bufs[0][j] = byte(j + 1) // root payload for bcast
			}
			op := *ranksOp
			start := time.Now()
			res, err := cl.RunT(srmcoll.SRM, func(tc *srmcoll.TComm, done func()) {
				fin := func(err error) {
					if err != nil {
						fmt.Fprintf(os.Stderr, "srmbench: rank %d: %v\n", tc.Rank(), err)
						os.Exit(1)
					}
					done()
				}
				if op == "barrier" {
					tc.Barrier(fin)
					return
				}
				tc.Bcast(bufs[tc.Rank()], 0, fin)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
				os.Exit(1)
			}
			wall := time.Since(start)
			verified := ""
			if op == "bcast" {
				for r, buf := range bufs {
					for j := range buf {
						if buf[j] != byte(j+1) {
							fmt.Fprintf(os.Stderr, "srmbench: bcast rank %d byte %d = %d, want %d\n", r, j, buf[j], byte(j+1))
							os.Exit(1)
						}
					}
				}
				verified = ", verified"
			}
			fmt.Printf("ranks %d (%d nodes x %d tasks) %s: sim %.1f us, %d events, wall %s, %.0f events/sec%s\n",
				nodes*tpn, nodes, tpn, op, res.Time, res.Events, wall,
				float64(res.Events)/wall.Seconds(), verified)
		}
	}

	g := exp.DefaultGrid()
	chaosCfg := exp.DefaultChaosConfig()
	tuneCfg := exp.DefaultTuneConfig()
	trainCfg := exp.DefaultTrainConfig()
	if *quick {
		g = exp.QuickGrid()
		chaosCfg = exp.QuickChaosConfig()
		tuneCfg = exp.QuickTuneConfig()
		trainCfg = exp.QuickTrainConfig()
	}

	// -fig train and -trainjson share one sweep, run at most once.
	var trainRep *exp.TrainReport
	runTrainOnce := func() *exp.TrainReport {
		if trainRep == nil {
			rep, err := exp.RunTrain(trainCfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
				os.Exit(1)
			}
			trainRep = rep
		}
		return trainRep
	}

	if *trainjson != "" {
		rep := runTrainOnce()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*trainjson, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *trainjson)
	}

	if *tunejson != "" {
		if *topo != "" {
			tuneCfg.Topos = []string{*topo}
		}
		tbl, err := exp.RunTune(tuneCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		data, err := tbl.Marshal()
		if err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*tunejson, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *tunejson)
	}

	if *chaosjson != "" {
		rep := exp.RunChaos(chaosCfg)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*chaosjson, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *chaosjson)
		if h := rep.Hangs(); h > 0 {
			fmt.Fprintf(os.Stderr, "srmbench: chaos campaign had %d non-clean runs\n", h)
			os.Exit(1)
		}
	}

	if *overlapjson != "" {
		rep := exp.RunOverlap(g)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*overlapjson, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *overlapjson)
	}

	if *traceOut != "" {
		js, report, err := exp.RunTraceBasket(g)
		if err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		js = append(js, '\n')
		if err := os.WriteFile(*traceOut, js, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *traceOut)
		fmt.Print(report)
	}
	emit := func(t *exp.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Text())
		}
		if *charts {
			x, ys := t.XY()
			series := make([]plot.Series, len(ys))
			for i := range ys {
				series[i] = plot.Series{Name: t.Cols[1+i], Y: ys[i]}
			}
			fmt.Println(plot.Render(x, series, plot.Options{
				Title: t.ID + " — " + t.Title,
				LogX:  t.LogX,
				LogY:  t.LogY,
			}))
		}
	}

	ops := map[string]exp.Op{"6": exp.Bcast, "7": exp.Reduce, "8": exp.Allreduce}
	ratios := map[string]exp.Op{"9": exp.Bcast, "10": exp.Reduce, "11": exp.Allreduce}
	figs := []string{*fig}
	if *fig == "all" {
		figs = []string{"2", "6", "7", "8", "9", "10", "11", "12"}
	}
	for _, f := range figs {
		switch {
		case f == "":
		case f == "2":
			emit(exp.Fig2())
		case ops[f] != 0 || f == "6":
			op := ops[f]
			emit(exp.FigAbsolute(g, op))
			emit(exp.FigCompareSmall(g, op))
		case ratios[f] != 0 || f == "9":
			op := ratios[f]
			emit(exp.FigRatio(g, op, srmcoll.IBMMPI))
			emit(exp.FigRatio(g, op, srmcoll.MPICHMPI))
		case f == "12":
			emit(exp.Fig12(g))
		case f == "chaos":
			emit(exp.ChaosTable(exp.RunChaos(chaosCfg)))
		case f == "train":
			rep := runTrainOnce()
			for _, t := range exp.FigTrain(trainCfg, rep) {
				emit(t)
			}
			fmt.Print(exp.TrainHeadline(rep))
		case f == "crossover":
			spec := *topo
			if spec == "" {
				spec = tuneCfg.Topos[1] // the grid's non-power-of-two shape
			}
			tabs, err := exp.FigCrossover(tuneCfg, spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "srmbench: %v\n", err)
				os.Exit(1)
			}
			for _, t := range tabs {
				emit(t)
			}
		default:
			fmt.Fprintf(os.Stderr, "srmbench: unknown figure %q\n", f)
			os.Exit(2)
		}
	}

	if *headline {
		fmt.Print(exp.HeadlineText(exp.Headline(g)))
	}
	if *extension {
		emit(exp.Extension(g))
	}

	abls := []string{*ablation}
	if *ablation == "all" {
		abls = []string{"trees", "smpbcast", "yield", "chunks", "eager", "interrupts", "late", "15of16", "daemons", "model", "overlap"}
	}
	for _, a := range abls {
		switch a {
		case "":
		case "trees":
			emit(exp.AblationTrees(g, exp.Bcast))
			emit(exp.AblationTrees(g, exp.Reduce))
		case "smpbcast":
			emit(exp.AblationSMPBcast(g))
		case "yield":
			emit(exp.AblationYield(g, exp.Bcast))
		case "chunks":
			emit(exp.AblationChunks(g))
		case "eager":
			emit(exp.AblationEager(g))
		case "interrupts":
			emit(exp.AblationInterrupts(g, exp.Bcast))
			emit(exp.AblationInterrupts(g, exp.Reduce))
		case "late":
			emit(exp.AblationLateArrival(g))
		case "15of16":
			emit(exp.AblationFifteenOfSixteen(g))
		case "daemons":
			emit(exp.AblationDaemons(g))
		case "model":
			fmt.Print(exp.ModelText(exp.AblationModel(g)))
		case "overlap":
			emit(exp.AblationOverlap(g))
		default:
			fmt.Fprintf(os.Stderr, "srmbench: unknown ablation %q\n", a)
			os.Exit(2)
		}
	}
}
