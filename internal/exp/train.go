package exp

import (
	"fmt"
	"sort"

	"srmcoll"
)

// This file is the ML-training allreduce workload behind `srmbench
// train` and its `-json` report: data-parallel training steps where backprop
// produces gradient buckets back-to-front and each bucket's allreduce is
// issued non-blocking as soon as the bucket is ready, overlapping the
// wire time of earlier buckets with the compute of later ones. The
// per-bucket compute phase is calibrated to that bucket size's blocking
// allreduce time, so compute and communication are balanced — the regime
// where overlap quality decides the step time. The headline metric is
// Trace.OverlapReport's hidden fraction: the share of request lifetime
// that ran behind backprop instead of in Wait.

// TrainConfig is the training-workload sweep grid.
type TrainConfig struct {
	Topos       []string               // topology specs (machine.ParseTopo form); one ranks point each
	BucketBytes []int                  // gradient-bucket payload sizes
	Algs        []srmcoll.AllreduceAlg // allreduce families to compare
	Buckets     int                    // gradient buckets per training step
	Steps       int                    // measured training steps
	Faulty      bool                   // add a drop+reliable measurement per point
}

// DefaultTrainConfig sweeps 16 and 64 ranks across the selectable
// allreduce families; 64 ranks (8 nodes x 8 tasks) is the acceptance
// point for the hidden-pct headline.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Topos:       []string{"4x4", "8x8"},
		BucketBytes: []int{64 << 10, 256 << 10, 1 << 20},
		Algs: []srmcoll.AllreduceAlg{srmcoll.AllreduceAuto, srmcoll.AllreduceRing,
			srmcoll.AllreduceRHD, srmcoll.AllreduceDualRoot},
		Buckets: 8,
		Steps:   2,
		Faulty:  true,
	}
}

// QuickTrainConfig is a scaled-down grid for tests and -quick runs.
func QuickTrainConfig() TrainConfig {
	return TrainConfig{
		Topos:       []string{"2x4"},
		BucketBytes: []int{32 << 10, 256 << 10},
		Algs: []srmcoll.AllreduceAlg{srmcoll.AllreduceAuto, srmcoll.AllreduceRing,
			srmcoll.AllreduceRHD, srmcoll.AllreduceDualRoot},
		Buckets: 4,
		Steps:   1,
		Faulty:  true,
	}
}

// TrainEntry is one measured (topology, algorithm, bucket size, fault
// mode) point of the training sweep.
type TrainEntry struct {
	Topo        string  `json:"topo"`
	Ranks       int     `json:"ranks"`
	Alg         string  `json:"alg"`
	BucketBytes int     `json:"bucket_bytes"`
	Faulty      bool    `json:"faulty,omitempty"`
	CommUS      float64 `json:"comm_us"`   // blocking allreduce of one bucket (also the per-bucket compute budget)
	StepUS      float64 `json:"step_us"`   // one training step: Buckets x (compute + iallreduce) + wait
	HiddenUS    float64 `json:"hidden_us"` // request time that ran behind compute, all ranks
	ExposedUS   float64 `json:"exposed_us"`
	HiddenPct   float64 `json:"hidden_pct"` // 100 * hidden / request lifetime
}

// TrainReport is the full payload of srmbench train -json.
type TrainReport struct {
	Buckets int          `json:"buckets"`
	Steps   int          `json:"steps"`
	Entries []TrainEntry `json:"entries"`
}

// Best returns the fault-free entry with the highest hidden fraction at
// the given rank count (ok=false when the report has no such point).
func (r *TrainReport) Best(ranks int) (TrainEntry, bool) {
	best, ok := TrainEntry{}, false
	for _, e := range r.Entries {
		if e.Ranks == ranks && !e.Faulty && (!ok || e.HiddenPct > best.HiddenPct) {
			best, ok = e, true
		}
	}
	return best, ok
}

// trainBody is one rank's training loop: for each step, backprop the
// buckets back-to-front (Compute calibrated to one bucket's comm time),
// issue each bucket's allreduce as soon as its gradients exist, and wait
// for all of them before the optimizer step.
func trainBody(tc TrainConfig, bucketBytes int, compute float64) func(c *srmcoll.Comm) {
	return func(c *srmcoll.Comm) {
		sends := make([][]byte, tc.Buckets)
		recvs := make([][]byte, tc.Buckets)
		for b := range sends {
			sends[b] = make([]byte, bucketBytes)
			recvs[b] = make([]byte, bucketBytes)
		}
		reqs := make([]*srmcoll.Request, 0, tc.Buckets)
		for s := 0; s < tc.Steps; s++ {
			reqs = reqs[:0]
			for b := 0; b < tc.Buckets; b++ {
				c.Compute(compute)
				reqs = append(reqs, c.IAllreduce(sends[b], recvs[b], srmcoll.Float64, srmcoll.Sum))
			}
			for _, rq := range reqs {
				rq.Wait()
			}
		}
	}
}

// trainFaultPlan is the drop+reliable wire plan of the faulty column.
func trainFaultPlan() srmcoll.FaultPlan {
	return srmcoll.FaultPlan{
		Seed: 7, Drop: 0.01, Reliable: true, AckTimeout: 50, Deadline: 5e6,
	}
}

// measureTrain runs one sweep point: a calibration cluster times the
// blocking allreduce (setting the compute budget), then a traced cluster
// runs the training loop and the overlap report splits request time into
// hidden and exposed.
func measureTrain(tc TrainConfig, cfg srmcoll.Config, alg srmcoll.AllreduceAlg, bucketBytes int, faulty bool) TrainEntry {
	mk := func() *srmcoll.Cluster {
		cl, err := srmcoll.NewCluster(cfg)
		if err != nil {
			panic(err)
		}
		cl.SetVariant(srmcoll.Variant{Allreduce: alg})
		if faulty {
			cl.SetFaultPlan(trainFaultPlan())
		}
		return cl
	}
	comm := measureCluster(mk(), srmcoll.SRM, Allreduce, bucketBytes, 1)

	cl := mk()
	cl.SetTracing(true)
	res, err := cl.Run(srmcoll.SRM, trainBody(tc, bucketBytes, comm))
	if err != nil {
		panic(fmt.Sprintf("exp: train %v %dB faulty=%v: %v", alg, bucketBytes, faulty, err))
	}
	e := TrainEntry{
		Topo:        cfg.TopoKey(),
		Ranks:       cfg.P(),
		Alg:         alg.String(),
		BucketBytes: bucketBytes,
		Faulty:      faulty,
		CommUS:      comm,
		StepUS:      res.Time / float64(tc.Steps),
	}
	var lifetime float64
	for _, rq := range res.Trace.OverlapReport() {
		e.HiddenUS += rq.Hidden
		e.ExposedUS += rq.Exposed
		lifetime += rq.End - rq.Issued
	}
	if lifetime > 0 {
		e.HiddenPct = 100 * e.HiddenUS / lifetime
	}
	return e
}

// RunTrain measures the training sweep. Every point owns its clusters and
// writes only its slot, so the report is byte-identical at any worker
// count.
func RunTrain(tc TrainConfig) (*TrainReport, error) {
	type point struct {
		cfg    srmcoll.Config
		alg    srmcoll.AllreduceAlg
		bytes  int
		faulty bool
	}
	var pts []point
	for _, spec := range tc.Topos {
		cfg, err := srmcoll.ParseTopo(spec)
		if err != nil {
			return nil, err
		}
		for _, alg := range tc.Algs {
			for _, bb := range tc.BucketBytes {
				pts = append(pts, point{cfg, alg, bb, false})
				if tc.Faulty {
					pts = append(pts, point{cfg, alg, bb, true})
				}
			}
		}
	}
	rep := &TrainReport{Buckets: tc.Buckets, Steps: tc.Steps, Entries: make([]TrainEntry, len(pts))}
	forEach(len(pts), func(i int) {
		p := pts[i]
		rep.Entries[i] = measureTrain(tc, p.cfg, p.alg, p.bytes, p.faulty)
	})
	return rep, nil
}

// FigTrain renders the sweep as two tables per topology — time per
// training step and hidden fraction, bucket size on the x axis, one
// column pair (fault-free, faulty) per algorithm family.
func FigTrain(tc TrainConfig, rep *TrainReport) []*Table {
	cols := func(metric string) []string {
		c := []string{"bytes"}
		for _, alg := range tc.Algs {
			c = append(c, alg.String())
			if tc.Faulty {
				c = append(c, alg.String()+"+drop")
			}
		}
		_ = metric
		return c
	}
	at := make(map[string]TrainEntry, len(rep.Entries))
	key := func(topo, alg string, bytes int, faulty bool) string {
		return fmt.Sprintf("%s|%s|%d|%v", topo, alg, bytes, faulty)
	}
	for _, e := range rep.Entries {
		at[key(e.Topo, e.Alg, e.BucketBytes, e.Faulty)] = e
	}
	var topos []string
	seen := map[string]int{}
	for _, e := range rep.Entries {
		if _, ok := seen[e.Topo]; !ok {
			seen[e.Topo] = e.Ranks
			topos = append(topos, e.Topo)
		}
	}
	sort.Slice(topos, func(i, j int) bool { return seen[topos[i]] < seen[topos[j]] })

	var out []*Table
	for _, topo := range topos {
		ranks := seen[topo]
		step := &Table{
			ID:    fmt.Sprintf("train-step-%dp", ranks),
			Title: fmt.Sprintf("training step time (us) on %d CPUs (%s), %d buckets, per allreduce family", ranks, topo, tc.Buckets),
			Cols:  cols("step"), Prec: 1, LogX: true,
		}
		hid := &Table{
			ID:    fmt.Sprintf("train-hidden-%dp", ranks),
			Title: fmt.Sprintf("communication hidden behind backprop (%%) on %d CPUs (%s), per allreduce family", ranks, topo),
			Cols:  cols("hidden"), Prec: 1, LogX: true,
		}
		for _, bb := range tc.BucketBytes {
			srow, hrow := []float64{float64(bb)}, []float64{float64(bb)}
			for _, alg := range tc.Algs {
				for _, faulty := range []bool{false, true} {
					if faulty && !tc.Faulty {
						continue
					}
					e := at[key(topo, alg.String(), bb, faulty)]
					srow = append(srow, e.StepUS)
					hrow = append(hrow, e.HiddenPct)
				}
			}
			step.Rows = append(step.Rows, srow)
			hid.Rows = append(hid.Rows, hrow)
		}
		out = append(out, step, hid)
	}
	return out
}

// TrainHeadline summarizes the sweep's best overlap per rank count —
// the acceptance line `srmbench train` prints under the tables.
func TrainHeadline(rep *TrainReport) string {
	var ranks []int
	seen := map[int]bool{}
	for _, e := range rep.Entries {
		if !seen[e.Ranks] {
			seen[e.Ranks] = true
			ranks = append(ranks, e.Ranks)
		}
	}
	sort.Ints(ranks)
	s := ""
	for _, r := range ranks {
		if e, ok := rep.Best(r); ok {
			s += fmt.Sprintf("best overlap at %d ranks: %s, %d KiB buckets, %.1f%% of communication hidden (step %.1f us, bucket comm %.1f us)\n",
				r, e.Alg, e.BucketBytes>>10, e.HiddenPct, e.StepUS, e.CommUS)
		}
	}
	return s
}
