package exp

// Trace basket: a small fixed set of traced collectives that exercises the
// span taxonomy end to end (SMP phases, chunk slots, put lifecycles, credit
// waits). cmd/srmbench surfaces it as its trace subcommand; CI validates and archives the
// JSON. Points run through the same worker pool as the figure sweeps and
// write slot-addressed outputs, so the merged document is byte-identical at
// any -j.

import (
	"fmt"
	"strings"

	"srmcoll"
	"srmcoll/internal/trace"
)

// traceCase is one workload of the basket.
type traceCase struct {
	op   Op
	size int
}

// traceBasket lists the basket workloads in report order.
func traceBasket() []traceCase {
	return []traceCase{
		{Bcast, 16 << 10},
		{Bcast, 128 << 10},
		{Reduce, 32 << 10},
		{Allreduce, 8 << 10},
		{Barrier, 0},
	}
}

// RunTraceBasket runs the basket on the grid's smallest processor count
// with tracing enabled and returns the merged Chrome trace-event JSON plus
// a critical-path report (one block per workload).
func RunTraceBasket(g Grid) (chromeJSON []byte, report string, err error) {
	cases := traceBasket()
	procs := g.Procs[0]
	traces := make([]*trace.Trace, len(cases))
	forEach(len(cases), func(i int) {
		traces[i] = traceOne(g, cases[i], procs)
	})
	js, err := trace.ChromeJSON(traces...)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	for _, t := range traces {
		b.WriteString(trace.CritPathText(t.Label, t.CriticalPath()))
	}
	return js, b.String(), nil
}

// traceOne runs a single traced collective call and labels its trace.
func traceOne(g Grid, tc traceCase, procs int) *trace.Trace {
	cl, err := srmcoll.NewCluster(srmcoll.ColonySP(nodesFor(g, procs), g.TasksPerNode))
	if err != nil {
		panic(err)
	}
	cl.SetTracing(true)
	res, err := cl.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
		var send, recv []byte
		if tc.op != Barrier {
			send = make([]byte, tc.size)
			recv = make([]byte, tc.size)
		}
		switch tc.op {
		case Bcast:
			c.Bcast(send, 0)
		case Reduce:
			var rb []byte
			if c.Rank() == 0 {
				rb = recv
			}
			c.Reduce(send, rb, srmcoll.Float64, srmcoll.Sum, 0)
		case Allreduce:
			c.Allreduce(send, recv, srmcoll.Float64, srmcoll.Sum)
		case Barrier:
			c.Barrier()
		}
	})
	if err != nil {
		panic(fmt.Sprintf("exp: trace %v size=%d: %v", tc.op, tc.size, err))
	}
	t := res.Trace
	if tc.op == Barrier {
		t.Label = fmt.Sprintf("%s-p%d", tc.op, procs)
	} else {
		t.Label = fmt.Sprintf("%s-%dB-p%d", tc.op, tc.size, procs)
	}
	return t
}
