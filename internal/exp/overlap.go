package exp

import (
	"fmt"

	"srmcoll"
)

// This file is the overlap ablation (A11) behind `srmbench ablation
// overlap` and the CI artifact behind `srmbench overlap -json`: it
// quantifies how much of a pipelined allreduce the non-blocking interface
// hides behind an equally long compute phase. Three measurements per
// message size, all on the largest grid configuration:
//
//   comm        one allreduce alone (sets the compute-phase length)
//   blocking    Compute(comm) then Allreduce, serialized
//   overlapped  IAllreduce, Compute(comm), Wait
//
// The hidden fraction is (blocking - overlapped) / comm: the share of the
// communication time that disappeared behind the compute phase. Small
// messages overlap almost fully (the op runs entirely on the rank's
// service thread while the rank computes); very large pipelined messages
// keep a shared-memory completion tail that only runs once Wait parks.

// OverlapEntry reports the three measurements at one message size.
type OverlapEntry struct {
	Bytes        int     `json:"bytes"`
	CommUS       float64 `json:"comm_us"`
	BlockingUS   float64 `json:"blocking_us"`
	OverlappedUS float64 `json:"overlapped_us"`
	HiddenPct    float64 `json:"hidden_pct"`
}

// OverlapPerf is the full payload of srmbench overlap -json.
type OverlapPerf struct {
	Procs        int            `json:"procs"`
	TasksPerNode int            `json:"tasks_per_node"`
	Iters        int            `json:"iters"`
	Entries      []OverlapEntry `json:"entries"`
}

// overlapModes index the three measurement loops of overlapMeasure.
const (
	overlapCommOnly = iota
	overlapBlocking
	overlapNonblocking
)

// overlapMeasure times one loop variant: iters iterations of an SRM
// allreduce of the given size, alone, behind a blocking compute phase, or
// issued non-blocking across it.
func overlapMeasure(g Grid, cfg srmcoll.Config, size, mode int, compute float64) float64 {
	cl, err := srmcoll.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	iters := g.Iters
	if size >= g.LargeOnce || iters < 1 {
		iters = 1
	}
	res, err := cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		send := make([]byte, size)
		recv := make([]byte, size)
		for i := 0; i < iters; i++ {
			switch mode {
			case overlapCommOnly:
				c.Allreduce(send, recv, srmcoll.Float64, srmcoll.Sum)
			case overlapBlocking:
				c.Compute(compute)
				c.Allreduce(send, recv, srmcoll.Float64, srmcoll.Sum)
			case overlapNonblocking:
				req := c.IAllreduce(send, recv, srmcoll.Float64, srmcoll.Sum)
				c.Compute(compute)
				req.Wait()
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("exp: overlap allreduce size=%d mode=%d: %v", size, mode, err))
	}
	return res.Time / float64(iters)
}

// RunOverlap measures the overlap sweep on the grid's largest processor
// count. Two sweep passes: the communication-alone times first (they set
// each size's compute-phase length), then the blocking and overlapped
// loops. Both passes fan across the worker pool and the result is
// byte-identical at any worker count.
func RunOverlap(g Grid) OverlapPerf {
	procs := g.Procs[len(g.Procs)-1]
	cfg := srmcoll.ColonySP(nodesFor(g, procs), g.TasksPerNode)
	comm := sweepGrid(len(g.Sizes), 1, func(xi, yi int) float64 {
		return overlapMeasure(g, cfg, g.Sizes[xi], overlapCommOnly, 0)
	})
	loops := sweepGrid(len(g.Sizes), 2, func(xi, yi int) float64 {
		return overlapMeasure(g, cfg, g.Sizes[xi], overlapBlocking+yi, comm[xi][0])
	})
	rep := OverlapPerf{Procs: procs, TasksPerNode: g.TasksPerNode, Iters: g.Iters}
	for i, size := range g.Sizes {
		c, blocking, overlapped := comm[i][0], loops[i][0], loops[i][1]
		hidden := 0.0
		if c > 0 {
			hidden = (blocking - overlapped) / c * 100
		}
		rep.Entries = append(rep.Entries, OverlapEntry{
			Bytes:        size,
			CommUS:       c,
			BlockingUS:   blocking,
			OverlappedUS: overlapped,
			HiddenPct:    hidden,
		})
	}
	return rep
}

// AblationOverlap (A11) renders the overlap sweep as a table.
func AblationOverlap(g Grid) *Table {
	rep := RunOverlap(g)
	t := &Table{
		ID: "ablation-overlap",
		Title: fmt.Sprintf("SRM allreduce on %d CPUs: communication hidden behind compute via IAllreduce",
			rep.Procs),
		Cols: []string{"bytes", "comm", "blocking", "overlapped", "hidden-pct"},
		Prec: 1,
		LogX: true,
	}
	for _, e := range rep.Entries {
		t.Rows = append(t.Rows, []float64{float64(e.Bytes), e.CommUS, e.BlockingUS, e.OverlappedUS, e.HiddenPct})
	}
	return t
}
