package exp

import (
	"fmt"
	"strings"

	"srmcoll"
	"srmcoll/internal/tree"
	"srmcoll/internal/tune"
)

// This file is the (op, size, topology) autotuner: it
// measures each candidate inter-node tree across the tuning grid with the
// parallel sweep runner, picks the winner per cell, and compresses the
// winners into the size-threshold decision table that srmcoll.Cluster
// dispatches through by default (internal/tune). Every cell owns its
// cluster and writes only its own slot, so the table is byte-identical at
// any -j.

// TuneConfig is the tuning grid.
type TuneConfig struct {
	Topos []string    // topology-shape specs (machine.ParseTopo form)
	Ops   []Op        // tree-shaped operations: Bcast, Reduce, Allreduce
	Sizes []int       // message sizes, ascending
	Trees []tree.Kind // candidate inter-node trees; the first is the tie default
	// Algs are the allreduce algorithm-family candidates (Auto must come
	// first: it is the tie default and its time is the winning tree's).
	// Non-auto candidates are measured with the winning tree per cell.
	// Empty means tree-only tuning.
	Algs  []srmcoll.AllreduceAlg
	Iters int // back-to-back calls averaged per cell
}

// DefaultTuneConfig is the committed table's grid: hierarchical shapes with
// non-power-of-two leaf groups (where binomial trees stop being accidentally
// hierarchy-aligned) across the protocol's size regimes, plus a thin-node
// non-power-of-two shape (24x2) where the bandwidth-optimal dissemination
// families overtake the tree pipeline at large messages.
func DefaultTuneConfig() TuneConfig {
	return TuneConfig{
		Topos: []string{"8x8/2", "12x8/3", "16x8/4/2", "24x4/3/2", "24x2"},
		Ops:   []Op{Bcast, Reduce, Allreduce},
		Sizes: []int{8, 512, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20},
		Trees: []tree.Kind{tree.Binomial, tree.Binary, tree.Multilevel, tree.Bine},
		Algs: []srmcoll.AllreduceAlg{srmcoll.AllreduceAuto, srmcoll.AllreduceRing,
			srmcoll.AllreduceRHD, srmcoll.AllreduceDualRoot},
		Iters: 2,
	}
}

// QuickTuneConfig is a scaled-down grid for tests and -quick runs.
func QuickTuneConfig() TuneConfig {
	return TuneConfig{
		Topos: []string{"8x4/2", "12x4/3"},
		Ops:   []Op{Bcast, Allreduce},
		Sizes: []int{8, 4 << 10, 64 << 10},
		Trees: []tree.Kind{tree.Binomial, tree.Multilevel, tree.Bine},
		Algs: []srmcoll.AllreduceAlg{srmcoll.AllreduceAuto, srmcoll.AllreduceRing,
			srmcoll.AllreduceRHD, srmcoll.AllreduceDualRoot},
		Iters: 1,
	}
}

// measureTree times one (cfg, op, size) cell with a forced inter-node tree,
// bypassing any installed decision table so the tuner never measures itself.
func measureTree(cfg srmcoll.Config, op Op, size int, kind tree.Kind, iters int) float64 {
	cl, err := srmcoll.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	cl.SetTuning(nil)
	cl.SetVariant(srmcoll.Variant{InterTree: kind})
	if iters < 1 || size >= 256<<10 {
		iters = 1
	}
	return measureCluster(cl, srmcoll.SRM, op, size, iters)
}

// measureAlg times one allreduce cell with a forced algorithm family on a
// forced inter-node tree (the tree winner of the same cell), again with
// the decision table bypassed.
func measureAlg(cfg srmcoll.Config, size int, kind tree.Kind, alg srmcoll.AllreduceAlg, iters int) float64 {
	cl, err := srmcoll.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	cl.SetTuning(nil)
	cl.SetVariant(srmcoll.Variant{InterTree: kind, Allreduce: alg})
	if iters < 1 || size >= 256<<10 {
		iters = 1
	}
	return measureCluster(cl, srmcoll.SRM, Allreduce, size, iters)
}

// RunTune sweeps the grid and returns the decision table. The measurement
// fan-out uses the worker pool; winners and rule compression are computed
// serially from the slot-addressed results, so the output is byte-identical
// at any worker count.
func RunTune(tc TuneConfig) (*tune.Table, error) {
	type cell struct {
		topo, op, size, tree int
	}
	cfgs := make([]srmcoll.Config, len(tc.Topos))
	for i, spec := range tc.Topos {
		cfg, err := srmcoll.ParseTopo(spec)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	var cells []cell
	for ti := range tc.Topos {
		for oi := range tc.Ops {
			for si := range tc.Sizes {
				for ki := range tc.Trees {
					cells = append(cells, cell{ti, oi, si, ki})
				}
			}
		}
	}
	times := make([]float64, len(cells))
	forEach(len(cells), func(i int) {
		c := cells[i]
		times[i] = measureTree(cfgs[c.topo], tc.Ops[c.op], tc.Sizes[c.size], tc.Trees[c.tree], tc.Iters)
	})
	at := func(ti, oi, si, ki int) float64 {
		return times[((ti*len(tc.Ops)+oi)*len(tc.Sizes)+si)*len(tc.Trees)+ki]
	}

	// Winning tree per cell, computed serially from the slots: first
	// strictly-fastest candidate in Trees order, so ties keep the paper's
	// default (Trees[0]). The alg pass below reuses these winners.
	winKi := make([]int, len(cells)/max(len(tc.Trees), 1))
	wk := func(ti, oi, si int) int {
		return (ti*len(tc.Ops)+oi)*len(tc.Sizes) + si
	}
	for ti := range tc.Topos {
		for oi := range tc.Ops {
			for si := range tc.Sizes {
				best := 0
				for ki := 1; ki < len(tc.Trees); ki++ {
					if at(ti, oi, si, ki) < at(ti, oi, si, best) {
						best = ki
					}
				}
				winKi[wk(ti, oi, si)] = best
			}
		}
	}

	// Second fan-out: the non-auto allreduce families, each measured with
	// the cell's winning tree. Auto is never re-measured — its time is the
	// winning tree's own, so a family must beat that strictly to displace
	// the paper's default dissemination algorithm.
	if len(tc.Algs) > 0 && tc.Algs[0] != srmcoll.AllreduceAuto {
		return nil, fmt.Errorf("exp: TuneConfig.Algs must start with %v", srmcoll.AllreduceAuto)
	}
	var arOps []int
	oiToJ := make(map[int]int)
	for oi, op := range tc.Ops {
		if op == Allreduce && len(tc.Algs) > 1 {
			oiToJ[oi] = len(arOps)
			arOps = append(arOps, oi)
		}
	}
	nalg := len(tc.Algs) - 1 // measured (non-auto) families
	type acell struct {
		topo, j, size, alg int
	}
	var acells []acell
	for ti := range tc.Topos {
		for j := range arOps {
			for si := range tc.Sizes {
				for ai := 1; ai < len(tc.Algs); ai++ {
					acells = append(acells, acell{ti, j, si, ai})
				}
			}
		}
	}
	algTimes := make([]float64, len(acells))
	forEach(len(acells), func(i int) {
		c := acells[i]
		oi := arOps[c.j]
		kind := tc.Trees[winKi[wk(c.topo, oi, c.size)]]
		algTimes[i] = measureAlg(cfgs[c.topo], tc.Sizes[c.size], kind, tc.Algs[c.alg], tc.Iters)
	})
	aat := func(ti, j, si, ai int) float64 {
		return algTimes[((ti*len(arOps)+j)*len(tc.Sizes)+si)*nalg+(ai-1)]
	}

	comment := fmt.Sprintf("generated by srmcoll autotuner: %d topologies x %d ops x %d sizes x %d trees",
		len(tc.Topos), len(tc.Ops), len(tc.Sizes), len(tc.Trees))
	if nalg > 0 {
		comment += fmt.Sprintf(" x %d allreduce algs", len(tc.Algs))
	}
	tbl := &tune.Table{Comment: comment}
	for ti, cfg := range cfgs {
		entry := tune.TopoEntry{
			Topo: cfg.TopoKey(),
			Ops:  make(map[string][]tune.Rule),
			Note: fmt.Sprintf("iters=%d sizes=%v", tc.Iters, tc.Sizes),
		}
		for oi, op := range tc.Ops {
			winners := make([]tree.Kind, len(tc.Sizes))
			// Per-size algorithm winner; the zero value is Auto, which is
			// what every non-allreduce op (and an empty Algs grid) keeps.
			algW := make([]srmcoll.AllreduceAlg, len(tc.Sizes))
			for si := range tc.Sizes {
				best := winKi[wk(ti, oi, si)]
				winners[si] = tc.Trees[best]
				if j, ok := oiToJ[oi]; ok {
					bestTime, bi := at(ti, oi, si, best), 0
					for ai := 1; ai < len(tc.Algs); ai++ {
						if ta := aat(ti, j, si, ai); ta < bestTime {
							bestTime, bi = ta, ai
						}
					}
					algW[si] = tc.Algs[bi]
				}
			}
			// Compress runs of equal (tree, alg) winners into threshold
			// rules; the last run is open-ended.
			var rules []tune.Rule
			for si := 0; si < len(tc.Sizes); {
				sj := si
				for sj+1 < len(tc.Sizes) && winners[sj+1] == winners[si] && algW[sj+1] == algW[si] {
					sj++
				}
				maxBytes := tc.Sizes[sj]
				if sj == len(tc.Sizes)-1 {
					maxBytes = -1
				}
				r := tune.Rule{MaxBytes: maxBytes, Tree: winners[si].String()}
				if algW[si] != srmcoll.AllreduceAuto {
					r.Alg = algW[si].String()
				}
				rules = append(rules, r)
				si = sj + 1
			}
			entry.Ops[op.String()] = rules
		}
		tbl.Entries = append(tbl.Entries, entry)
	}
	if err := tbl.Validate(); err != nil {
		return nil, err
	}
	return tbl, nil
}

// FigCrossover produces the per-topology crossover tables: for each
// tree-shaped operation, time versus message size with one column per
// candidate tree, on the given topology shape. These are the
// paper-figure-style plots of the hierarchy; the winning column's
// crossover points are exactly the thresholds RunTune persists.
func FigCrossover(tc TuneConfig, topoSpec string) ([]*Table, error) {
	cfg, err := srmcoll.ParseTopo(topoSpec)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, op := range tc.Ops {
		t := &Table{
			ID:    fmt.Sprintf("crossover-%s-%s", strings.ReplaceAll(cfg.TopoKey(), "/", "-"), op),
			Title: fmt.Sprintf("%s time (us) vs size on %s, per inter-node tree", op, cfg.TopoKey()),
			Cols:  []string{"bytes"},
			Prec:  1,
			LogX:  true,
			LogY:  true,
		}
		for _, k := range tc.Trees {
			t.Cols = append(t.Cols, k.String())
		}
		op := op
		vals := sweepGrid(len(tc.Sizes), len(tc.Trees), func(xi, yi int) float64 {
			return measureTree(cfg, op, tc.Sizes[xi], tc.Trees[yi], tc.Iters)
		})
		t.Rows = gridRows(vals, func(i int) float64 { return float64(tc.Sizes[i]) })
		tables = append(tables, t)
	}
	return tables, nil
}
