package srmcoll

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// faultProbeBody runs a representative mix of SRM collectives and records
// every payload a rank ends up with into out[rank], so two runs can be
// compared byte-for-byte.
func faultProbeBody(out [][]byte) func(*Comm) {
	return func(c *Comm) {
		rank, P := c.Rank(), c.Size()

		bcast := make([]byte, 1536)
		if rank == 0 {
			for i := range bcast {
				bcast[i] = byte(i*7 + 3)
			}
		}
		c.Bcast(bcast, 0)

		vals := make([]int64, 128)
		for i := range vals {
			vals[i] = int64(rank+1) * int64(i+3)
		}
		send := Int64Bytes(vals)
		red := make([]byte, len(send))
		c.Reduce(send, red, Int64, Sum, 1%P)

		allred := make([]byte, len(send))
		c.Allreduce(send, allred, Int64, Sum)

		c.Barrier()

		buf := append([]byte(nil), bcast...)
		buf = append(buf, red...)
		buf = append(buf, allred...)
		out[rank] = buf
	}
}

func TestSRMSurvivesPutDrops(t *testing.T) {
	clean := mustCluster(t, 4, 2)
	outClean := make([][]byte, 8)
	resClean, err := clean.Run(SRM, faultProbeBody(outClean))
	if err != nil {
		t.Fatal(err)
	}

	faulty := mustCluster(t, 4, 2)
	faulty.SetFaultPlan(FaultPlan{
		Seed:     7,
		Drop:     0.1,
		Dup:      0.05,
		Delay:    0.05,
		DelayMax: 20,
		Reliable: true,
	})
	outFaulty := make([][]byte, 8)
	resFaulty, err := faulty.Run(SRM, faultProbeBody(outFaulty))
	if err != nil {
		t.Fatal(err)
	}

	for r := range outClean {
		if !bytes.Equal(outClean[r], outFaulty[r]) {
			t.Errorf("rank %d: payloads differ between clean and faulty run", r)
		}
	}
	if resFaulty.Faults.PutDrops == 0 {
		t.Fatal("no puts were dropped; the fault plan did nothing")
	}
	if resFaulty.Stats.Drops == 0 || resFaulty.Stats.Retries == 0 {
		t.Fatalf("Stats.Drops = %d, Stats.Retries = %d; want both > 0",
			resFaulty.Stats.Drops, resFaulty.Stats.Retries)
	}
	if resFaulty.Stats.AckTimeouts < resFaulty.Stats.Retries {
		t.Fatalf("AckTimeouts = %d < Retries = %d", resFaulty.Stats.AckTimeouts, resFaulty.Stats.Retries)
	}
	if resFaulty.Time <= resClean.Time {
		t.Errorf("faulty run (%.3f) not slower than clean run (%.3f)", resFaulty.Time, resClean.Time)
	}
	for _, key := range []string{"drops=", "retries="} {
		if !strings.Contains(resFaulty.Stats.String(), key) {
			t.Errorf("Stats.String() missing %q: %s", key, resFaulty.Stats.String())
		}
	}
}

func TestFaultRunsAreDeterministic(t *testing.T) {
	plan := FaultPlan{
		Seed:     1234,
		Drop:     0.08,
		Dup:      0.04,
		Delay:    0.1,
		DelayMax: 15,
		AckDrop:  0.05,
		Reliable: true,
		Storms:   []Storm{{Node: 1, From: 0, Until: 5000, Extra: 25}},
		Stalls:   []Stall{{Rank: 2, From: 0, Until: 100000, Factor: 2}},
	}
	run := func() (*Result, [][]byte) {
		cl := mustCluster(t, 4, 2)
		cl.SetFaultPlan(plan)
		out := make([][]byte, 8)
		res, err := cl.Run(SRM, faultProbeBody(out))
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	r1, out1 := run()
	if a, b := pinOf(r1, out1), pinOf(run()); a != b {
		t.Fatalf("identical runs differ: pins %s and %s", a, b)
	}
	// A different seed must change the injected-fault trace.
	plan.Seed = 99
	cl := mustCluster(t, 4, 2)
	cl.SetFaultPlan(plan)
	out := make([][]byte, 8)
	r3, err := cl.Run(SRM, faultProbeBody(out))
	if err != nil {
		t.Fatal(err)
	}
	if pinOf(r3) == pinOf(r1) {
		t.Fatal("changing the seed changed nothing")
	}
}

func TestZeroFaultPlanBitIdentical(t *testing.T) {
	c1 := mustCluster(t, 2, 4)
	out1 := make([][]byte, 8)
	r1, err := c1.Run(SRM, faultProbeBody(out1))
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustCluster(t, 2, 4)
	c2.SetFaultPlan(FaultPlan{}) // explicit zero plan must be a no-op
	out2 := make([][]byte, 8)
	r2, err := c2.Run(SRM, faultProbeBody(out2))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := pinOf(r1, out1), pinOf(r2, out2); a != b || r2.Faults != (FaultSummary{}) {
		t.Fatalf("zero-value plan changed the run: pins %s and %s, faults %v", a, b, r2.Faults)
	}
}

func TestInjectedCrashYieldsRunError(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	cl.SetFaultPlan(FaultPlan{Crashes: []Crash{{Rank: 3, At: 5}}})
	res, err := cl.Run(SRM, func(c *Comm) {
		c.Compute(10)
		c.Barrier()
	})
	if res != nil {
		t.Fatal("crashed run returned a result")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("Run() = %v, want *RunError", err)
	}
	if re.Rank != 3 || re.Op != "crash" {
		t.Fatalf("RunError = %+v, want Rank 3 Op crash", re)
	}
	if !strings.Contains(re.Error(), "rank 3") || !strings.Contains(re.Error(), "crash") {
		t.Fatalf("message = %q", re.Error())
	}
}

func TestDeadlockReportsBlockedRanks(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	_, err := cl.Run(SRM, func(c *Comm) {
		if c.Rank() != 0 {
			c.Barrier() // rank 0 never arrives
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(de.Procs) == 0 || len(de.WaitGraph) == 0 {
		t.Fatalf("report missing wait context: %+v", de)
	}
	for _, p := range de.Procs {
		if p.Waiting == "" {
			t.Errorf("%s has empty wait context", p.Name)
		}
	}
	joined := strings.Join(de.Blocked, ",")
	if !strings.Contains(joined, "rank1") {
		t.Fatalf("Blocked = %v, want rank1 listed", de.Blocked)
	}
	if strings.Contains(joined, "rank0") {
		t.Fatalf("Blocked = %v, rank0 finished and must not be listed", de.Blocked)
	}
}

func TestDeadlineProducesStallReport(t *testing.T) {
	cl := mustCluster(t, 2, 1)
	cl.SetFaultPlan(FaultPlan{Seed: 1, Drop: 1, Reliable: true, Deadline: 20000})
	res, err := cl.Run(SRM, func(c *Comm) {
		buf := make([]byte, 256)
		c.Bcast(buf, 0)
	})
	if res != nil {
		t.Fatal("stalled run returned a result")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run() = %v, want *StallError", err)
	}
	if len(se.Blocked) == 0 {
		t.Fatal("stall report lists no blocked processes")
	}
	if !strings.Contains(se.Error(), "stalled") || !strings.Contains(se.Error(), "waiting on") {
		t.Fatalf("message = %q", se.Error())
	}
}

func TestStallWindowSlowsRank(t *testing.T) {
	body := func(c *Comm) {
		c.Compute(100)
		c.Barrier()
	}
	clean := mustCluster(t, 2, 2)
	rClean, err := clean.Run(SRM, body)
	if err != nil {
		t.Fatal(err)
	}
	stalled := mustCluster(t, 2, 2)
	stalled.SetFaultPlan(FaultPlan{Stalls: []Stall{{Rank: 1, From: 0, Until: 1e6, Factor: 3}}})
	rStalled, err := stalled.Run(SRM, body)
	if err != nil {
		t.Fatal(err)
	}
	if rStalled.Time < rClean.Time+150 {
		t.Fatalf("stalled run %.3f, clean %.3f: 3x stall of rank 1's 100us compute not visible",
			rStalled.Time, rClean.Time)
	}
	if rStalled.Faults.Stalls != 1 {
		t.Fatalf("Faults.Stalls = %d, want 1", rStalled.Faults.Stalls)
	}
}

func TestInterruptStormSlowsDelivery(t *testing.T) {
	body := func(c *Comm) {
		buf := make([]byte, 1024)
		c.Bcast(buf, 0)
	}
	clean := mustCluster(t, 2, 1)
	rClean, err := clean.Run(SRM, body)
	if err != nil {
		t.Fatal(err)
	}
	stormy := mustCluster(t, 2, 1)
	stormy.SetFaultPlan(FaultPlan{Storms: []Storm{{Node: 1, From: 0, Until: 1e6, Extra: 50}}})
	rStormy, err := stormy.Run(SRM, body)
	if err != nil {
		t.Fatal(err)
	}
	if rStormy.Faults.StormHits == 0 {
		t.Fatal("storm never hit a delivery")
	}
	if rStormy.Time <= rClean.Time {
		t.Fatalf("stormy run %.3f not slower than clean %.3f", rStormy.Time, rClean.Time)
	}
}

func TestWrongBufferSizeIsRunError(t *testing.T) {
	for _, tc := range []struct {
		impl Impl
		op   string
	}{
		{SRM, "core.Gather"},
		{IBMMPI, "baseline.Gather"},
	} {
		cl := mustCluster(t, 2, 2)
		_, err := cl.Run(tc.impl, func(c *Comm) {
			send := make([]byte, 64)
			var recv []byte
			if c.Rank() == 0 {
				recv = make([]byte, 10) // want 4*64
			}
			c.Gather(send, recv, 0)
		})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("%v: Run() = %v, want *RunError", tc.impl, err)
		}
		if re.Rank != 0 || re.Op != tc.op {
			t.Fatalf("%v: RunError = %+v, want Rank 0 Op %s", tc.impl, re, tc.op)
		}
		if !strings.Contains(re.Error(), "recv buffer is 10 bytes, want 256") {
			t.Fatalf("%v: message = %q", tc.impl, re.Error())
		}
	}
}

// TestRootOutsideGroupIsRunError: a rooted collective whose root is no member
// of the communicator fails the run with a *RunError that names the root, on
// every implementation and entry point, blocking or not. SRM's Gather and
// Scatter used to fail with an index out of range instead.
func TestRootOutsideGroupIsRunError(t *testing.T) {
	const blk = 8
	send, recv, all := make([]byte, blk), make([]byte, blk), make([]byte, 8*blk)
	ops := []struct {
		name   string
		call   func(c *Comm, root int) error
		issue  func(c *Comm, root int) *Request
		issueT func(tc *TComm, root int, k func(*TRequest))
	}{
		{"bcast", func(c *Comm, root int) error { return c.Bcast(recv, root) },
			func(c *Comm, root int) *Request { return c.IBcast(recv, root) },
			func(tc *TComm, root int, k func(*TRequest)) { tc.IBcast(recv, root, k) }},
		{"reduce", func(c *Comm, root int) error { return c.Reduce(send, recv, Float64, Sum, root) },
			func(c *Comm, root int) *Request { return c.IReduce(send, recv, Float64, Sum, root) },
			func(tc *TComm, root int, k func(*TRequest)) { tc.IReduce(send, recv, Float64, Sum, root, k) }},
		{"gather", func(c *Comm, root int) error { return c.Gather(send, all, root) },
			func(c *Comm, root int) *Request { return c.IGather(send, all, root) },
			func(tc *TComm, root int, k func(*TRequest)) { tc.IGather(send, all, root, k) }},
		{"scatter", func(c *Comm, root int) error { return c.Scatter(all, recv, root) },
			func(c *Comm, root int) *Request { return c.IScatter(all, recv, root) },
			func(tc *TComm, root int, k func(*TRequest)) { tc.IScatter(all, recv, root, k) }},
	}
	for _, op := range ops {
		for _, root := range []int{-1, 8, 1 << 40} {
			runs := map[string]func(cl *Cluster) (*Result, error){
				"RunT nonblocking": func(cl *Cluster) (*Result, error) {
					return cl.RunT(SRM, func(tc *TComm, done func()) {
						op.issueT(tc, root, func(r *TRequest) { r.Wait(func(error) { done() }) })
					})
				},
				"Run nonblocking": func(cl *Cluster) (*Result, error) {
					return cl.Run(SRM, func(c *Comm) { op.issue(c, root).Wait() })
				},
			}
			for _, impl := range impls() {
				runs["Run "+impl.String()] = func(cl *Cluster) (*Result, error) {
					return cl.Run(impl, func(c *Comm) { op.call(c, root) })
				}
			}
			for form, run := range runs {
				_, err := run(mustCluster(t, 2, 4))
				var re *RunError
				if msg := fmt.Sprint(err); !errors.As(err, &re) || strings.Contains(msg, "runtime error") ||
					!strings.Contains(msg, fmt.Sprintf("%d is not a", root)) || !strings.Contains(msg, "member") {
					t.Errorf("%s, root %d, %s: err = %v, want a *RunError naming the root as no member", op.name, root, form, err)
				}
			}
		}
	}
}

// TestFaultPlanValidationRejected: a malformed plan is refused before anything
// runs, by each entry point. Among the rows are a NaN rate, a plan that is not
// Active at all, and a storm that would have sped deliveries up.
func TestFaultPlanValidationRejected(t *testing.T) {
	for _, plan := range []FaultPlan{
		{Drop: 1.5},
		{Dup: -0.1},
		{Drop: math.NaN()},
		{Delay: 0.5, DelayMax: -3},
		{Crashes: []Crash{{Rank: 99, At: 1}}},
		{Stalls: []Stall{{Rank: 0, Factor: 0.5}}},
		{Channels: []ChannelFault{{Src: -2, Dst: 0}}},
		{Channels: []ChannelFault{{Src: 0, Dst: 1, Drop: 7}}},
		{Storms: []Storm{{Node: 99, From: 0, Until: 10, Extra: 5}}},
		{Storms: []Storm{{Node: 1, From: 0, Until: 1e6, Extra: -50}}},
	} {
		cl := mustCluster(t, 2, 2)
		cl.SetFaultPlan(plan)
		ran := false
		_, errRun := cl.Run(SRM, func(*Comm) { ran = true })
		_, errRunT := cl.RunT(SRM, func(_ *TComm, done func()) { ran = true; done() })
		_, errScale := cl.ScaleAllreduce(ScaleOptions{Bytes: 64})
		for entry, err := range map[string]error{"Run": errRun, "RunT": errRunT, "ScaleAllreduce": errScale} {
			if err == nil {
				t.Errorf("%s accepted plan %+v", entry, plan)
			}
		}
		if ran {
			t.Errorf("a rank ran under plan %+v", plan)
		}
	}
}

func TestUnreliableDropDeadlocksWithContext(t *testing.T) {
	// Without reliable mode a dropped put is lost forever; the run must not
	// hang silently but report who is stuck on what.
	cl := mustCluster(t, 2, 1)
	cl.SetFaultPlan(FaultPlan{Seed: 3, Drop: 1})
	_, err := cl.Run(SRM, func(c *Comm) {
		buf := make([]byte, 256)
		c.Bcast(buf, 0)
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(de.Procs) == 0 {
		t.Fatal("deadlock report has no blocked-process context")
	}
}

// nonblockingFaultBody overlaps outstanding requests with compute under
// fault injection: two requests in flight at once, a Test-polled third,
// and a final blocking barrier that quiesces the stream.
func nonblockingFaultBody(out [][]byte) func(*Comm) {
	return func(c *Comm) {
		rank := c.Rank()

		bcast := make([]byte, 1536)
		if rank == 0 {
			for i := range bcast {
				bcast[i] = byte(i*7 + 3)
			}
		}
		vals := make([]int64, 128)
		for i := range vals {
			vals[i] = int64(rank+1) * int64(i+3)
		}
		send := Int64Bytes(vals)
		allred := make([]byte, len(send))

		r1 := c.IBcast(bcast, 0)
		r2 := c.IAllreduce(send, allred, Int64, Sum)
		c.Compute(50)
		r2.Wait()
		r1.Wait()

		scan := make([]byte, len(send))
		r3 := c.IScan(send, scan, Int64, Sum)
		for !r3.Test() {
			c.Compute(5)
		}
		c.Barrier()

		buf := append([]byte(nil), bcast...)
		buf = append(buf, allred...)
		buf = append(buf, scan...)
		out[rank] = buf
	}
}

// TestNonblockingSurvivesPutDrops: drops/dups under reliable RMA while
// requests are outstanding must still complete with the fault-free bytes
// and no deadlock.
func TestNonblockingSurvivesPutDrops(t *testing.T) {
	clean := mustCluster(t, 4, 2)
	outClean := make([][]byte, 8)
	if _, err := clean.Run(SRM, nonblockingFaultBody(outClean)); err != nil {
		t.Fatal(err)
	}

	faulty := mustCluster(t, 4, 2)
	faulty.SetFaultPlan(FaultPlan{
		Seed:     11,
		Drop:     0.1,
		Dup:      0.05,
		Delay:    0.05,
		DelayMax: 20,
		Reliable: true,
	})
	outFaulty := make([][]byte, 8)
	resFaulty, err := faulty.Run(SRM, nonblockingFaultBody(outFaulty))
	if err != nil {
		t.Fatal(err)
	}
	for r := range outClean {
		if !bytes.Equal(outClean[r], outFaulty[r]) {
			t.Errorf("rank %d: payloads differ between clean and faulty run", r)
		}
	}
	if resFaulty.Faults.PutDrops == 0 {
		t.Fatal("no puts were dropped; the fault plan did nothing")
	}
}

// TestNonblockingFaultRunsAreDeterministic: the same faulty non-blocking
// workload twice must agree to the bit.
func TestNonblockingFaultRunsAreDeterministic(t *testing.T) {
	run := func() (*Result, [][]byte) {
		cl := mustCluster(t, 4, 2)
		cl.SetFaultPlan(FaultPlan{Seed: 23, Drop: 0.15, Dup: 0.1, Reliable: true})
		out := make([][]byte, 8)
		res, err := cl.Run(SRM, nonblockingFaultBody(out))
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	if a, b := pinOf(run()), pinOf(run()); a != b {
		t.Errorf("identical faulty non-blocking runs differ: pins %s and %s", a, b)
	}
}

// TestNonblockingStallKeepsProgress: a stalled rank's outstanding request
// still completes correctly — the helper (the rank's communication service
// thread) is not subject to the rank's lost CPU.
func TestNonblockingStallKeepsProgress(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	cl.SetFaultPlan(FaultPlan{Stalls: []Stall{{Rank: 2, From: 0, Until: 400, Factor: 50}}})
	out := make([][]byte, 4)
	_, err := cl.Run(SRM, func(c *Comm) {
		buf := make([]byte, 1024)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i * 11)
			}
		}
		req := c.IBcast(buf, 0)
		c.Compute(10)
		req.Wait()
		out[c.Rank()] = buf
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if !bytes.Equal(out[r], out[0]) {
			t.Errorf("rank %d: broadcast corrupted under stall window", r)
		}
	}
}
