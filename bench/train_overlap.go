package main

import (
	"fmt"
	"hash"
	"math"

	"srmcoll"
)

// train_overlap: the ML-training user — data-parallel steps where
// backprop yields gradient buckets one at a time and each bucket's
// allreduce is issued non-blocking behind the next bucket's compute. The
// per-bucket compute is calibrated to that bucket's blocking allreduce
// time, so overlap quality decides the step time. The body and the cell
// list are a frozen copy of internal/exp's training sweep at 64 ranks.

const (
	trainBuckets = 8
	trainSteps   = 2
)

var trainAlgs = [...]srmcoll.AllreduceAlg{
	srmcoll.AllreduceAuto, srmcoll.AllreduceRing, srmcoll.AllreduceRHD, srmcoll.AllreduceDualRoot,
}

type trainOverlap struct {
	cfg        srmcoll.Config
	send, recv *arena // row = rank*trainBuckets + bucket
	sums       *arena // row = bucket: sequential sum over ranks
	sumHash    map[int]uint64
	errs       []error
	hidden     []float64 // hidden_pct of each fault-free cell this repetition
	steps      []float64 // step time of each fault-free cell at the largest bucket
	maxBucket  int
}

func buildTrainOverlap(seed uint64, smoke bool) *instance {
	rg := newRNG(seed, "train_overlap")
	topo, buckets := "8x8", []int{64 << 10, 256 << 10}
	if smoke {
		topo, buckets = "2x4", []int{32 << 10}
	}
	cfg, err := srmcoll.ParseTopo(topo)
	if err != nil {
		panic(err)
	}
	ranks, stride := cfg.P(), buckets[len(buckets)-1]
	t := &trainOverlap{
		cfg:  cfg,
		send: newArena(ranks*trainBuckets, stride), recv: newArena(ranks*trainBuckets, stride),
		sums: newArena(trainBuckets, stride), sumHash: map[int]uint64{},
		errs: make([]error, ranks), maxBucket: stride,
	}
	rg.fillInts(t.send.buf)
	for b := 0; b < trainBuckets; b++ {
		acc := f64s(t.sums.row(b, stride))
		for r := 0; r < ranks; r++ {
			for i, v := range f64s(t.send.row(r*trainBuckets+b, stride)) {
				acc[i] += v
			}
		}
	}
	for _, bb := range buckets {
		var x uint64
		for b := 0; b < trainBuckets; b++ {
			x = x*31 + hashBytes(t.sums.row(b, bb))
		}
		t.sumHash[bb] = x
	}

	in := &instance{
		inputs: t.send,
		begin:  func() { t.hidden, t.steps = t.hidden[:0], t.steps[:0] },
		extras: t.extras,
	}
	for _, alg := range trainAlgs {
		for _, bb := range buckets {
			in.cells = append(in.cells, t.cell(alg, bb, srmcoll.FaultPlan{}))
		}
	}
	// The same four families at the largest bucket over a lossy wire:
	// the cells that run rma's reliable delivery under request streams.
	for _, alg := range trainAlgs {
		in.cells = append(in.cells, t.cell(alg, stride, srmcoll.FaultPlan{
			Seed: rg.derive(), Drop: 0.01, Reliable: true, AckTimeout: 50, Deadline: 5e6,
		}))
	}
	return in
}

// cell is one sweep point: a blocking allreduce of one bucket sets the
// compute budget, then a traced run of the training loop is split into
// hidden and exposed communication by Trace.OverlapReport.
func (t *trainOverlap) cell(alg srmcoll.AllreduceAlg, bucketBytes int, plan srmcoll.FaultPlan) cell {
	ranks := t.cfg.P()
	faulty := plan.Active()
	mk := func(tracing bool) *srmcoll.Cluster {
		cl := mustCluster(t.cfg)
		cl.SetVariant(srmcoll.Variant{Allreduce: alg})
		cl.SetFaultPlan(plan)
		cl.SetTracing(tracing)
		return cl
	}
	calib, train := mk(false), mk(true)
	calibBody := func(c *srmcoll.Comm) {
		row := c.Rank() * trainBuckets
		t.errs[c.Rank()] = c.Allreduce(t.send.row(row, bucketBytes), t.recv.row(row, bucketBytes), srmcoll.Float64, srmcoll.Sum)
	}
	var compute float64
	trainBody := func(c *srmcoll.Comm) {
		row := c.Rank() * trainBuckets
		var reqs [trainBuckets]*srmcoll.Request
		for s := 0; s < trainSteps; s++ {
			for b := 0; b < trainBuckets; b++ {
				c.Compute(compute)
				reqs[b] = c.IAllreduce(t.send.row(row+b, bucketBytes), t.recv.row(row+b, bucketBytes), srmcoll.Float64, srmcoll.Sum)
			}
			for _, rq := range reqs {
				if err := rq.Wait(); err != nil {
					t.errs[c.Rank()] = err
				}
			}
		}
	}
	name := fmt.Sprintf("srmcoll.Run:train/%s/%d", alg, bucketBytes)
	if faulty {
		name += "+drop"
	}
	run := func(h hash.Hash) cellOut {
		for i := 0; i < ranks*trainBuckets; i++ {
			poison(t.recv.row(i, bucketBytes))
		}
		cres, err := calib.Run(srmcoll.SRM, calibBody)
		if err != nil {
			return cellOut{fail: "calibration: " + errString(err)}
		}
		compute = cres.Time
		res, err := train.Run(srmcoll.SRM, trainBody)
		if err != nil {
			return cellOut{fail: errString(err)}
		}
		hashResult(h, cres)
		hashResult(h, res)
		out := cellOut{
			simUS: cres.Time + res.Time, events: cres.Events + res.Events,
			retries: cres.Stats.Retries + res.Stats.Retries,
		}
		var hiddenUS, lifetime float64
		for _, rq := range res.Trace.OverlapReport() {
			hiddenUS += rq.Hidden
			lifetime += rq.End - rq.Issued
		}
		if lifetime == 0 {
			out.fail = "trace recorded no non-blocking requests"
			return out
		}
		for r := 0; r < ranks; r++ {
			if t.errs[r] != nil {
				out.fail = fmt.Sprintf("rank %d: %v", r, t.errs[r])
				return out
			}
			for b := 0; b < trainBuckets; b++ {
				if !matches(t.recv.row(r*trainBuckets+b, bucketBytes), t.sums.row(b, bucketBytes), fullCheck(r*trainBuckets+b, ranks*trainBuckets, bucketBytes)) {
					out.fail = fmt.Sprintf("rank %d bucket %d: allreduce output differs from the sequential sum", r, b)
					return out
				}
			}
		}
		hashPayload(h, t.sumHash[bucketBytes])
		if !faulty {
			t.hidden = append(t.hidden, 100*hiddenUS/lifetime)
			if bucketBytes == t.maxBucket {
				t.steps = append(t.steps, res.Time/trainSteps)
			}
		}
		return out
	}
	return cell{name: name, run: run}
}

// extras reports the best fault-free overlap and the best fault-free
// step time at the largest bucket size.
func (t *trainOverlap) extras() map[string]float64 {
	hidden, step := 0.0, math.Inf(1)
	for _, v := range t.hidden {
		hidden = math.Max(hidden, v)
	}
	for _, v := range t.steps {
		step = math.Min(step, v)
	}
	if math.IsInf(step, 1) {
		step = 0
	}
	return map[string]float64{"hidden_pct": hidden, "step_us": step}
}
