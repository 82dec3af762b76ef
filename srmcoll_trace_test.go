package srmcoll

import (
	"bytes"
	"sync"
	"testing"

	"srmcoll/internal/trace"
)

func tracedRun(t *testing.T, nodes, tasks int, body func(*Comm)) *Result {
	t.Helper()
	cl, err := NewCluster(ColonySP(nodes, tasks))
	if err != nil {
		t.Fatal(err)
	}
	cl.SetTracing(true)
	res, err := cl.Run(SRM, body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("SetTracing(true) run returned nil Result.Trace")
	}
	return res
}

func TestTracingOffByDefault(t *testing.T) {
	cl, err := NewCluster(ColonySP(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if cl.Tracing() {
		t.Fatal("tracing on by default")
	}
	res, err := cl.Run(SRM, func(c *Comm) { c.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced run returned a trace")
	}
}

// TestTracingDoesNotPerturbRun pins the zero-interference guarantee: the
// virtual times and counters of a run must be identical with tracing on
// and off, because hooks only observe the schedule.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	body := func(c *Comm) {
		buf := make([]byte, 4096)
		c.Bcast(buf, 0)
		c.Allreduce(make([]byte, 256), make([]byte, 256), Float64, Sum)
		c.Barrier()
	}
	run := func(tracing bool) *Result {
		cl, err := NewCluster(ColonySP(2, 4))
		if err != nil {
			t.Fatal(err)
		}
		cl.SetTracing(tracing)
		res, err := cl.Run(SRM, body)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if off, on := pinOf(run(false)), pinOf(run(true)); off != on {
		t.Errorf("tracing moved the run: pin off %s, on %s", off, on)
	}
}

// TestTraceRootSpansReconcile checks the op root spans against the run's
// reported times: each rank records one root per collective call, roots
// nest nothing above them, and the last root on a rank ends exactly at
// that rank's completion time.
func TestTraceRootSpansReconcile(t *testing.T) {
	res := tracedRun(t, 2, 4, func(c *Comm) {
		c.Bcast(make([]byte, 1024), 0)
		c.Barrier()
	})
	wantNames := []string{"bcast", "barrier"}
	roots := make(map[int][]Span)
	for _, s := range res.Trace.Spans() {
		if s.Class == trace.ClassOp {
			if s.Parent != -1 {
				t.Fatalf("op root %q has parent %d", s.Name, s.Parent)
			}
			roots[s.Track] = append(roots[s.Track], s)
		}
	}
	if len(roots) != len(res.PerRank) {
		t.Fatalf("op roots on %d tracks, want %d", len(roots), len(res.PerRank))
	}
	for r, elapsed := range res.PerRank {
		rs := roots[r]
		if len(rs) != len(wantNames) {
			t.Fatalf("rank %d recorded %d op roots, want %d", r, len(rs), len(wantNames))
		}
		for i, s := range rs {
			if s.Name != wantNames[i] {
				t.Errorf("rank %d op %d = %q, want %q", r, i, s.Name, wantNames[i])
			}
			if s.End < s.Begin {
				t.Errorf("rank %d op %d never closed: %+v", r, i, s)
			}
		}
		if last := rs[len(rs)-1]; last.End != elapsed {
			t.Errorf("rank %d last op ends at %.17g, PerRank says %.17g", r, last.End, elapsed)
		}
	}
	ops := res.Trace.CriticalPath()
	if len(ops) != len(wantNames) {
		t.Fatalf("CriticalPath reports %d ops, want %d", len(ops), len(wantNames))
	}
	if ops[len(ops)-1].End != res.Time {
		t.Errorf("last op ends at %.17g, Result.Time %.17g", ops[len(ops)-1].End, res.Time)
	}
}

// TestTraceGoldenBroadcastTimeline pins the full span timeline of a small
// broadcast: 2 nodes x 2 tasks, 64 bytes. Any change to hook placement,
// span taxonomy or the protocol schedule shows up here. Regenerate the
// golden by printing res.Trace.TimelineText() if an intentional change
// shifts it.
func TestTraceGoldenBroadcastTimeline(t *testing.T) {
	res := tracedRun(t, 2, 2, func(c *Comm) {
		c.Bcast(make([]byte, 64), 0)
	})
	const golden = "" +
		"     0.000      5.856  rank0          bcast 64B\n" +
		"     0.000      5.256  rank1          bcast 64B\n" +
		"     0.000      5.256  rank1            smp:consume 64B\n" +
		"     0.000      4.728  rank1              wait:flag\n" +
		"     0.000     16.614  rank2          bcast 64B\n" +
		"     0.000     16.086  rank2            wait:arrive\n" +
		"     0.000     17.214  rank3          bcast 64B\n" +
		"     0.000     17.214  rank3            smp:consume 64B\n" +
		"     0.000     16.686  rank3              wait:flag\n" +
		"     3.600      4.386  net/g0           put:inject 64B\n" +
		"     3.600      4.128  rank0            smp:publish 64B\n" +
		"     3.600      4.128  rank0              shm:copy 64B\n" +
		"     4.128      5.856  rank0            wait:flag\n" +
		"     4.386     12.886  net/g0           put:wire 64B\n" +
		"     4.728      5.256  rank1              shm:copy 64B\n" +
		"    12.886     16.086  net/g0           put:deliver:poll\n" +
		"    16.086     16.614  rank2            chunk:slot 64B\n" +
		"    16.086     16.086  rank2              smp:publish 64B\n" +
		"    16.086     16.614  rank2              shm:copy 64B\n" +
		"    16.686     17.214  rank3              shm:copy 64B\n"
	if got := res.Trace.TimelineText(); got != golden {
		t.Fatalf("broadcast timeline changed:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestTraceChromeJSONDeterministic runs the same traced workload twice and
// requires byte-identical exports.
func TestTraceChromeJSONDeterministic(t *testing.T) {
	export := func() []byte {
		res := tracedRun(t, 2, 4, func(c *Comm) {
			c.Allreduce(make([]byte, 2048), make([]byte, 2048), Float64, Sum)
		})
		js, err := res.Trace.ChromeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	if a, b := export(), export(); !bytes.Equal(a, b) {
		t.Fatal("ChromeJSON differs between identical runs")
	}
}

// TestTraceGoldenNonblockingTimeline pins the span timeline of a 2-node
// IBcast issued over a Compute phase: the issue markers on the rank
// tracks, the request op running on its helper track (the rank's
// communication service thread), and the zero-width Wait spans once the
// compute phase ends after the broadcast already completed. Regenerate by
// printing res.Trace.TimelineText() if an intentional change shifts it.
func TestTraceGoldenNonblockingTimeline(t *testing.T) {
	res := tracedRun(t, 2, 1, func(c *Comm) {
		buf := make([]byte, 64)
		req := c.IBcast(buf, 0)
		c.Compute(50)
		req.Wait()
	})
	const golden = "" +
		"     0.000      0.000  rank0          issue:ibcast 64B\n" +
		"     0.000      0.000  rank1          issue:ibcast 64B\n" +
		"     0.000      3.600  rank0.req0     ibcast 64B\n" +
		"     0.000     16.614  rank1.req0     ibcast 64B\n" +
		"     0.000     16.086  rank1.req0       wait:arrive\n" +
		"     3.600      4.386  net/g2           put:inject 64B\n" +
		"     4.386     12.886  net/g2           put:wire 64B\n" +
		"    12.886     16.086  net/g2           put:deliver:poll\n" +
		"    16.086     16.614  rank1.req0       chunk:slot 64B\n" +
		"    16.086     16.614  rank1.req0         shm:copy 64B\n" +
		"    50.000     50.000  rank0          wait:ibcast 64B\n" +
		"    50.000     50.000  rank1          wait:ibcast 64B\n"
	if got := res.Trace.TimelineText(); got != golden {
		t.Fatalf("non-blocking timeline changed:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
	reqs := res.Trace.OverlapReport()
	if len(reqs) != 2 {
		t.Fatalf("OverlapReport has %d requests, want 2", len(reqs))
	}
	for _, r := range reqs {
		if r.Name != "ibcast" || r.Bytes != 64 {
			t.Errorf("request %+v: want ibcast 64B", r)
		}
		if r.Exposed != 0 {
			t.Errorf("track %d: exposed %.3f, want 0 (compute outlasts the op)", r.Track, r.Exposed)
		}
		if r.Hidden <= 0 || r.Hidden != r.End-r.Issued {
			t.Errorf("track %d: hidden %.3f, want the full op time %.3f", r.Track, r.Hidden, r.End-r.Issued)
		}
	}
}

// TestTraceOverlapExposedSplit checks the exposed/hidden split when the
// compute phase is shorter than the operation: hidden equals the compute
// time, exposed covers the rest of the request's lifetime.
func TestTraceOverlapExposedSplit(t *testing.T) {
	const work = 5.0
	res := tracedRun(t, 2, 1, func(c *Comm) {
		buf := make([]byte, 64)
		req := c.IBcast(buf, 0)
		c.Compute(work)
		req.Wait()
	})
	reqs := res.Trace.OverlapReport()
	if len(reqs) != 2 {
		t.Fatalf("OverlapReport has %d requests, want 2", len(reqs))
	}
	var last ReqOverlap
	for _, r := range reqs {
		if r.End > last.End {
			last = r
		}
	}
	if last.Exposed <= 0 {
		t.Fatalf("critical request shows no exposed time: %+v", last)
	}
	if d := last.Hidden - work; d > 1e-9 || d < -1e-9 {
		t.Errorf("hidden %.9f, want the compute time %.1f", last.Hidden, work)
	}
	if d := (last.Exposed + last.Hidden) - (last.End - last.Issued); d > 1e-9 || d < -1e-9 {
		t.Errorf("exposed %.9f + hidden %.9f does not cover the lifetime %.9f",
			last.Exposed, last.Hidden, last.End-last.Issued)
	}
}

// TestConcurrentRunsShareTracedCluster: a traced Cluster starts each run's
// span list with room for as many spans as its last traced run recorded, a
// hint its runs share however many of them are under way. Two goroutines run
// request streams of two lengths on one cluster, so the hint is by turns too
// small and too large, and every run's timeline, Chrome export and span count
// must be those of the same body run alone on a cluster of its own.
func TestConcurrentRunsShareTracedCluster(t *testing.T) {
	const nodes, tpn = 2, 4
	body := func(calls int) func(*Comm) {
		return func(c *Comm) {
			send, recv := make([]byte, 64), make([]byte, 64)
			for i := 0; i < calls; i++ {
				c.Compute(3)
				if err := c.IAllreduce(send, recv, Int64, Sum).Wait(); err != nil {
					panic(err)
				}
			}
			c.Barrier()
		}
	}
	type view struct {
		spans    int
		timeline string
		chrome   []byte
	}
	viewOf := func(res *Result) view {
		js, err := res.Trace.ChromeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return view{len(res.Trace.Spans()), res.Trace.TimelineText(), js}
	}
	lengths := []int{2, 9}
	alone := make([]view, len(lengths))
	for i, n := range lengths {
		alone[i] = viewOf(tracedRun(t, nodes, tpn, body(n)))
	}
	if alone[0].spans == alone[1].spans {
		t.Fatalf("both bodies record %d spans: the hint is never wrong", alone[0].spans)
	}
	cl := mustCluster(t, nodes, tpn)
	cl.SetTracing(true)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (w + k) % len(lengths)
				res, err := cl.Run(SRM, body(lengths[i]))
				if err != nil {
					t.Errorf("worker %d run %d: %v", w, k, err)
					return
				}
				if got, want := viewOf(res), alone[i]; got.spans != want.spans || got.timeline != want.timeline || !bytes.Equal(got.chrome, want.chrome) {
					t.Errorf("worker %d run %d (%d calls): %d spans, trace differs from the same body run alone (%d spans)", w, k, lengths[i], got.spans, want.spans)
				}
			}
		}(w)
	}
	wg.Wait()
}
