package main

import (
	"fmt"
	"hash"
	"math"

	"srmcoll"
)

// fig_grid: the user who regenerates the paper's comparison grid
// (Figures 6-12) — SRM against both MPI baselines on the goroutine (Proc)
// engine at 256 ranks, plus a hierarchical slice where the tuner picks
// multilevel trees. The cell list is a frozen copy: retuning
// internal/exp's grids cannot move this workload.

type gridOp int

const (
	opBcast gridOp = iota
	opReduce
	opAllreduce
	opBarrier
)

var gridOpNames = [...]string{"bcast", "reduce", "allreduce", "barrier"}

// paperBands are the improvement ranges over IBM MPI the paper reports
// (§1, §3): the only reference for the model's accuracy the repo holds.
// Barrier is the single 256-CPU figure ("73 %"), read as a lower bound.
var paperBands = [...]struct{ min, max float64 }{
	opBcast:     {27, 84},
	opReduce:    {24, 79},
	opAllreduce: {30, 73},
	opBarrier:   {73, math.Inf(1)},
}

var gridImpls = [...]srmcoll.Impl{srmcoll.SRM, srmcoll.IBMMPI, srmcoll.MPICHMPI}

type figGrid struct {
	send, recv *arena
	errs       []error                                     // per-rank collective error of the running cell
	perCall    [len(gridImpls)][len(gridOpNames)][]float64 // virtual us per call of the flat cells, by size
}

func buildFigGrid(seed uint64, smoke bool) *instance {
	rg := newRNG(seed, "fig_grid")
	nodes, tpn := 16, 16
	sizes := []int{8, 4 << 10, 64 << 10, 512 << 10}
	hier, hierSizes := "12x8/3/4", []int{4 << 10, 64 << 10, 256 << 10}
	calls, largeOnce := 4, 256<<10
	if smoke {
		nodes, tpn = 4, 4
		sizes = []int{8, 4 << 10, 64 << 10}
		hier, hierSizes = "8x8/2/4", []int{4 << 10}
	}
	flat := mustCluster(srmcoll.ColonySP(nodes, tpn))
	hcfg, err := srmcoll.ParseTopo(hier)
	if err != nil {
		panic(err)
	}
	hcl := mustCluster(hcfg)
	if hcl.Tuning() == nil || hcl.Tuning().Topo(hcfg.TopoKey()) == nil {
		panic(fmt.Sprintf("bench: topology %s is not in the default tuning table", hcfg.TopoKey()))
	}

	ranks := max(flat.Config().P(), hcfg.P())
	stride := sizes[len(sizes)-1]
	g := &figGrid{send: newArena(ranks, stride), recv: newArena(ranks, stride), errs: make([]error, ranks)}
	rg.fillInts(g.send.buf)
	flatSums := sumRows(g.send, flat.Config().P(), stride)
	hierSums := sumRows(g.send, hcfg.P(), hierSizes[len(hierSizes)-1])

	in := &instance{inputs: g.send}
	callsFor := func(size int) int {
		if size >= largeOnce {
			return 1
		}
		return calls
	}
	for ii, impl := range gridImpls {
		for op := opBcast; op <= opAllreduce; op++ {
			g.perCall[ii][op] = make([]float64, len(sizes))
			for si, size := range sizes {
				slot := &g.perCall[ii][op][si]
				in.cells = append(in.cells, g.cell(flat, impl, op, size, callsFor(size), rg.intn(flat.Config().P()), flatSums, slot))
			}
		}
		g.perCall[ii][opBarrier] = make([]float64, 1)
		in.cells = append(in.cells, g.cell(flat, impl, opBarrier, 0, calls, 0, nil, &g.perCall[ii][opBarrier][0]))
	}
	for _, op := range []gridOp{opBcast, opAllreduce} {
		for _, size := range hierSizes {
			c := g.cell(hcl, srmcoll.SRM, op, size, callsFor(size), rg.intn(hcfg.P()), hierSums, nil)
			c.name = fmt.Sprintf("srmcoll.Run:srm@%s/%s/%d", hcfg.TopoKey(), gridOpNames[op], size)
			in.cells = append(in.cells, c)
		}
	}
	in.extras = g.extras
	return in
}

func mustCluster(cfg srmcoll.Config) *srmcoll.Cluster {
	cl, err := srmcoll.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

// cell runs `calls` back-to-back collectives of one (impl, op, size) on
// cl and verifies the last call's output on every rank. perCall, when
// non-nil, receives the virtual time per call for the improvement bands.
func (g *figGrid) cell(cl *srmcoll.Cluster, impl srmcoll.Impl, op gridOp, size, calls, root int, sums []byte, perCall *float64) cell {
	ranks := cl.Config().P()
	body := func(c *srmcoll.Comm) {
		r := c.Rank()
		var err error
		for i := 0; i < calls && err == nil; i++ {
			switch op {
			case opBcast:
				err = c.Bcast(g.recv.row(r, size), root)
			case opReduce:
				var rb []byte
				if r == root {
					rb = g.recv.row(r, size)
				}
				err = c.Reduce(g.send.row(r, size), rb, srmcoll.Float64, srmcoll.Sum, root)
			case opAllreduce:
				err = c.Allreduce(g.send.row(r, size), g.recv.row(r, size), srmcoll.Float64, srmcoll.Sum)
			case opBarrier:
				err = c.Barrier()
			}
		}
		g.errs[r] = err
	}
	// The reference: the root's payload for a broadcast, the sequential
	// sum for the reductions. Its hash stands for the outputs in the digest.
	var want []byte
	switch op {
	case opBcast:
		want = g.send.row(root, size)
	case opReduce, opAllreduce:
		want = sums[:size]
	}
	wantHash := hashBytes(want)

	run := func(h hash.Hash) cellOut {
		for r := 0; r < ranks && op != opBarrier; r++ {
			if op == opBcast && r == root {
				copy(g.recv.row(r, size), want)
			} else if op != opReduce || r == root {
				poison(g.recv.row(r, size))
			}
		}
		res, err := cl.Run(impl, body)
		if err != nil {
			return cellOut{fail: errString(err)}
		}
		hashResult(h, res)
		out := cellOut{simUS: res.Time, events: res.Events, retries: res.Stats.Retries}
		for r := 0; r < ranks; r++ {
			if g.errs[r] != nil {
				out.fail = fmt.Sprintf("rank %d: %v", r, g.errs[r])
				return out
			}
			if op == opBarrier || (op == opReduce && r != root) {
				continue
			}
			if !matches(g.recv.row(r, size), want, r == root || fullCheck(r, ranks, size)) {
				out.fail = fmt.Sprintf("rank %d: output differs from the sequential reference", r)
				return out
			}
		}
		hashPayload(h, wantHash)
		if perCall != nil {
			*perCall = res.Time / float64(calls)
		}
		return out
	}
	return cell{name: fmt.Sprintf("srmcoll.Run:%s/%s/%d", impl, gridOpNames[op], size), run: run}
}

// extras derives the two accuracy metrics from the flat 256-rank cells:
// the smallest improvement of SRM over IBM MPI, and how far each
// operation's measured improvement band lies outside the paper's.
func (g *figGrid) extras() map[string]float64 {
	gainMin, gap := math.Inf(1), 0.0
	for op := opBcast; op <= opBarrier; op++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, srm := range g.perCall[0][op] {
			imp := 100 * (1 - srm/g.perCall[1][op][i])
			lo, hi = math.Min(lo, imp), math.Max(hi, imp)
		}
		gainMin = math.Min(gainMin, lo)
		gap = math.Max(gap, math.Max(paperBands[op].min-lo, hi-paperBands[op].max))
	}
	return map[string]float64{"srm_gain_min_pct": gainMin, "paper_band_gap_pts": math.Max(gap, 0)}
}
