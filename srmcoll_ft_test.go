package srmcoll

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ftCluster builds a cluster with fault tolerance and the given crashes.
func ftCluster(t testing.TB, nodes, tpn int, crashes ...Crash) *Cluster {
	t.Helper()
	cl := mustCluster(t, nodes, tpn)
	cl.SetFaultPlan(FaultPlan{Crashes: crashes})
	cl.SetFaultTolerance(DefaultFTConfig())
	return cl
}

// chaosLoopBody is the canonical survivor protocol: run `rounds`
// collectives (alternating bcast / allreduce); on a failure error — or
// after the last round — shrink the communicator and agree on the prefix
// of rounds every survivor completed, resuming from the minimum so the
// per-communicator call streams realign. sums records each rank's final
// allreduce result for correctness checks (may be nil).
func chaosLoopBody(rounds, bytes int, sums []float64) func(*Comm) {
	return chaosLoopBodyCompute(rounds, bytes, 25, sums)
}

func chaosLoopBodyCompute(rounds, bytes int, compute float64, sums []float64) func(*Comm) {
	return func(c *Comm) {
		comm := c
		buf := make([]byte, bytes)
		send := Float64Bytes(make([]float64, bytes/8))
		for i := range send {
			send[i] = 0 // reset below per round
		}
		recv := make([]byte, bytes)
		done := 0
		for {
			var err error
			if done < rounds {
				c.Compute(compute)
				if done%2 == 0 {
					err = comm.Bcast(buf, comm.Members()[0])
				} else {
					sv := make([]float64, bytes/8)
					for i := range sv {
						sv[i] = float64(c.Rank() + 1)
					}
					copy(send, Float64Bytes(sv))
					err = comm.Allreduce(send, recv, Float64, Sum)
					if err == nil && sums != nil {
						sums[c.Rank()] = Float64s(recv)[0]
					}
				}
				if err == nil {
					done++
					continue
				}
				var rfe *RankFailedError
				if !errors.As(err, &rfe) {
					panic(fmt.Sprintf("rank %d round %d: unexpected error %v", c.Rank(), done, err))
				}
			}
			nc, serr := comm.Shrink()
			if serr != nil {
				panic(serr)
			}
			var mask uint64
			for i := 0; i < done && i < 64; i++ {
				mask |= 1 << i
			}
			agreed, aerr := nc.Agree(mask)
			if aerr != nil {
				panic(aerr)
			}
			comm = nc
			done = 0
			for agreed&1 == 1 {
				done++
				agreed >>= 1
			}
			if done >= rounds {
				return
			}
		}
	}
}

// TestFaultToleranceNeedsSRM: a message-passing baseline cannot abandon an
// operation a declaration interrupted — its messages matched the retry, so
// ranks returned nil with a sum that mixed the two, or the retry hung — and
// fault tolerance over one is refused before any rank runs, from either form
// of body. Without fault tolerance the baselines run as ever.
func TestFaultToleranceNeedsSRM(t *testing.T) {
	for _, impl := range []Impl{IBMMPI, MPICHMPI} {
		cl := ftCluster(t, 2, 4, Crash{Rank: 3, At: 40})
		ran := false
		_, errRun := cl.Run(impl, func(*Comm) { ran = true })
		_, errRunT := cl.RunT(impl, func(_ *TComm, done func()) { ran = true; done() })
		for form, err := range map[string]error{"Run": errRun, "RunT": errRunT} {
			if err == nil || !strings.Contains(err.Error(), "fault tolerance") || !strings.Contains(err.Error(), impl.String()) {
				t.Errorf("%s(%s) with fault tolerance on: error %v, want one naming fault tolerance and the implementation", form, impl, err)
			}
		}
		if ran {
			t.Errorf("%s: a rank ran before fault tolerance was refused", impl)
		}
		cl.SetFaultTolerance(FTConfig{})
		cl.SetFaultPlan(FaultPlan{})
		if _, err := cl.Run(impl, func(c *Comm) { c.Barrier() }); err != nil {
			t.Errorf("%s without fault tolerance: %v", impl, err)
		}
		if _, err := cl.RunT(impl, func(tc *TComm, done func()) { tc.Barrier(func(error) { done() }) }); err != nil {
			t.Errorf("RunT(%s) without fault tolerance: %v", impl, err)
		}
	}
}

// TestCollectiveReturnsRankFailedError: a crash mid-run turns the blocking
// collective into a structured error on every survivor, and Shrink + a
// collective on the survivors completes.
func TestCollectiveReturnsRankFailedError(t *testing.T) {
	cl := ftCluster(t, 2, 4, Crash{Rank: 3, At: 40})
	sawError := make([]bool, 8)
	res, err := cl.Run(SRM, func(c *Comm) {
		for {
			if err := c.Barrier(); err != nil {
				var rfe *RankFailedError
				if !errors.As(err, &rfe) {
					t.Errorf("rank %d: Barrier error %v, want *RankFailedError", c.Rank(), err)
					return
				}
				if !errors.Is(err, ErrRankFailed) {
					t.Errorf("rank %d: error does not match ErrRankFailed", c.Rank())
				}
				if len(rfe.Failed) != 1 || rfe.Failed[0] != 3 {
					t.Errorf("rank %d: Failed = %v, want [3]", c.Rank(), rfe.Failed)
				}
				sawError[c.Rank()] = true
				nc, serr := c.Shrink()
				if serr != nil {
					t.Errorf("rank %d: Shrink: %v", c.Rank(), serr)
					return
				}
				if nc.Size() != 7 {
					t.Errorf("rank %d: shrunk size %d, want 7", c.Rank(), nc.Size())
				}
				if berr := nc.Barrier(); berr != nil {
					t.Errorf("rank %d: post-shrink Barrier: %v", c.Rank(), berr)
				}
				return
			}
			c.Compute(5)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for r, saw := range sawError {
		if r != 3 && !saw {
			t.Errorf("rank %d never observed the failure", r)
		}
	}
	if len(res.Failures) != 1 || res.Failures[0].Rank != 3 {
		t.Fatalf("Failures = %+v, want one record for rank 3", res.Failures)
	}
}

// A death is declared at the first heartbeat it misses plus the suspicion
// timeout.
func TestDeclareTime(t *testing.T) {
	for _, c := range []struct{ died, want float64 }{
		{0, 150},    // last beat at 0, missed beat at 50, +timeout
		{1, 150},    // mid-period death waits for the same missed beat
		{49.9, 150}, // just before the beat still counts the beat as missed
		{50, 200},   // death exactly on a beat: that beat went out, 100 is missed
		{125, 250},  // beat at 100 sent, 150 missed
		{1000, 1150},
	} {
		if got := declareTime(c.died); got != c.want {
			t.Errorf("declareTime(%v) = %v, want %v", c.died, got, c.want)
		}
	}
}

// TestDetectionTiming pins the analytic declaration formula: a crash at
// time d is declared at floor(d/period)*period + period + timeout.
func TestDetectionTiming(t *testing.T) {
	cl := ftCluster(t, 2, 2, Crash{Rank: 1, At: 40})
	res, err := cl.Run(SRM, func(c *Comm) {
		for {
			if err := c.Barrier(); err != nil {
				nc, _ := c.Shrink()
				if nc != nil {
					nc.Barrier()
				}
				return
			}
			c.Compute(5)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("Failures = %+v, want 1", res.Failures)
	}
	f := res.Failures[0]
	period, timeout := 50.0, 100.0
	want := float64(int64(f.CrashedAt/period))*period + period + timeout
	if f.DeclaredAt != want {
		t.Fatalf("DeclaredAt = %g for crash at %g, want %g", f.DeclaredAt, f.CrashedAt, want)
	}
	if f.CrashedAt < 40 {
		t.Fatalf("CrashedAt = %g, before the injected time 40", f.CrashedAt)
	}
}

// TestShrinkRerunAllreduce: the full recovery protocol — crash during a
// round loop, detect, shrink, rerun — completes with the survivors'
// allreduce combining exactly the survivors' contributions.
func TestShrinkRerunAllreduce(t *testing.T) {
	const rounds, bytes = 6, 64
	cl := ftCluster(t, 2, 4, Crash{Rank: 5, At: 120})
	sums := make([]float64, 8)
	res, err := cl.Run(SRM, chaosLoopBody(rounds, bytes, sums))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Rank != 5 {
		t.Fatalf("Failures = %+v, want rank 5", res.Failures)
	}
	if len(res.Repairs) == 0 {
		t.Fatal("no repairs recorded")
	}
	// Survivors are ranks != 5; their final allreduce sums (r+1) over them.
	want := 0.0
	for r := 0; r < 8; r++ {
		if r != 5 {
			want += float64(r + 1)
		}
	}
	for r := 0; r < 8; r++ {
		if r == 5 {
			continue
		}
		if sums[r] != want {
			t.Errorf("rank %d final allreduce = %g, want %g (survivors only)", r, sums[r], want)
		}
		if res.PerRank[r] == 0 {
			t.Errorf("rank %d has no completion time", r)
		}
	}
	if res.PerRank[5] != 0 {
		t.Errorf("crashed rank completion time = %g, want 0", res.PerRank[5])
	}
	// Every repair pairs a shrink with an agree on the shrunk comm.
	kinds := map[string]int{}
	for _, rep := range res.Repairs {
		kinds[rep.Kind]++
		if rep.CompletedAt < rep.StartedAt {
			t.Errorf("repair %+v completes before it starts", rep)
		}
	}
	if kinds["shrink"] == 0 || kinds["agree"] == 0 {
		t.Fatalf("repair kinds = %v, want both shrink and agree", kinds)
	}
}

// TestCrashKillsInFlightRequestHelpers: a rank that dies with requests in
// flight takes their helpers with it, so its side of those collectives stops
// where the crash found it and the survivors' matching requests fail with the
// declaration. Rank 1 dies with one request done but not waited for, which has
// no helper left to kill, and two whose partners have not issued theirs yet.
// Its second request's helper had contributed to its node's reduction before
// the crash, so the other node's second request completes and only rank 0's,
// beside it, fails; the third fails everywhere. Were the helpers left running,
// every request would complete.
func TestCrashKillsInFlightRequestHelpers(t *testing.T) {
	cl := ftCluster(t, 2, 2, Crash{Rank: 1, At: 40})
	errs := make([][3]error, 4)
	_, err := cl.Run(SRM, func(c *Comm) {
		r := c.Rank()
		send, recv := make([]byte, 3*8), make([]byte, 3*8)
		var reqs [3]*Request
		reqs[0] = c.IAllreduce(send[:8], recv[:8], Int64, Sum)
		c.Compute(20) // the first request completes meanwhile
		if r != 1 {
			c.Compute(100) // rank 1 has died by the time the others issue
		}
		reqs[1] = c.IAllreduce(send[8:16], recv[8:16], Int64, Sum)
		reqs[2] = c.IAllreduce(send[16:], recv[16:], Int64, Sum)
		c.Compute(30) // rank 1 does not wake from this one
		for i, rq := range reqs {
			errs[r][i] = rq.Wait()
		}
		if _, serr := c.Shrink(); serr != nil {
			t.Errorf("rank %d: Shrink: %v", r, serr)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, r := range []int{0, 2, 3} {
		if e := errs[r]; e[0] != nil || errors.Is(e[1], ErrRankFailed) != (r == 0) || !errors.Is(e[2], ErrRankFailed) {
			t.Errorf("rank %d: requests ended %v; want the first done, the second failed by the crash on rank 0 only, the third failed", r, e)
		}
	}
}

// TestNonBlockingRequestCarriesFailure: a crash mid-flight surfaces through
// Request.Wait as a *RankFailedError, and a request issued on a comm with
// an already-declared member completes immediately with the error.
func TestNonBlockingRequestCarriesFailure(t *testing.T) {
	cl := ftCluster(t, 2, 2, Crash{Rank: 2, At: 30})
	res, err := cl.Run(SRM, func(c *Comm) {
		buf := make([]byte, 256)
		for {
			req := c.IBcast(buf, 0)
			c.Compute(40)
			if werr := req.Wait(); werr != nil {
				var rfe *RankFailedError
				if !errors.As(werr, &rfe) {
					t.Errorf("rank %d: Wait error %v, want *RankFailedError", c.Rank(), werr)
					return
				}
				// The comm is known broken now: a fresh request must fail
				// fast without touching the network.
				req2 := c.IAllreduce(make([]byte, 64), make([]byte, 64), Float64, Sum)
				if w2 := req2.Wait(); !errors.Is(w2, ErrRankFailed) {
					t.Errorf("rank %d: pre-failed request Wait = %v, want ErrRankFailed", c.Rank(), w2)
				}
				if req2.Err() == nil {
					t.Errorf("rank %d: pre-failed request Err() = nil", c.Rank())
				}
				nc, serr := c.Shrink()
				if serr != nil {
					t.Errorf("rank %d: Shrink: %v", c.Rank(), serr)
					return
				}
				nreq := nc.IBcast(buf, nc.Members()[0])
				if w3 := nreq.Wait(); w3 != nil {
					t.Errorf("rank %d: post-shrink IBcast Wait: %v", c.Rank(), w3)
				}
				return
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Rank != 2 {
		t.Fatalf("Failures = %+v, want rank 2", res.Failures)
	}
}

// TestRecoveryReplaysBitIdentically: the whole crash → detect → shrink →
// rerun timeline is a deterministic function of the plan.
func TestRecoveryReplaysBitIdentically(t *testing.T) {
	run := func() *Result {
		cl := ftCluster(t, 2, 4, Crash{Rank: 5, At: 120}, Crash{Rank: 2, At: 400})
		cl.SetFaultPlan(FaultPlan{
			Seed: 77, Drop: 0.02, Reliable: true,
			Crashes:  []Crash{{Rank: 5, At: 120}, {Rank: 2, At: 400}},
			Deadline: 1e6,
		})
		res, err := cl.Run(SRM, chaosLoopBody(8, 64, nil))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if pa, pb := pinOf(a), pinOf(b); pa != pb {
		t.Fatalf("recovery timeline not deterministic: pins %s and %s", pa, pb)
	}
	if len(a.Failures) != 2 || a.Failures[0].Rank != 5 || a.Failures[1].Rank != 2 {
		t.Fatalf("Failures = %+v, want ranks 5 and 2", a.Failures)
	}
}

// TestSeededRecoveryTimelineGolden pins one seeded crash → detect → shrink
// → re-run-allreduce timeline. The values encode the detector formula and
// the deterministic repair schedule; a change here is a behavior change.
func TestSeededRecoveryTimelineGolden(t *testing.T) {
	cl := ftCluster(t, 2, 2, Crash{Rank: 1, At: 40})
	res, err := cl.Run(SRM, chaosLoopBody(4, 64, nil))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("Failures = %+v", res.Failures)
	}
	// The kill is injected at t=40 but delivered at the rank's next resume
	// (t=55.256, mid-round): the beat at 50 went out, 100 is the first
	// missed one, declared 100 later.
	f := res.Failures[0]
	if f.Rank != 1 || f.CrashedAt != 55.256 || f.DeclaredAt != 200 {
		t.Fatalf("failure = %+v, want rank 1 crashed at t=55.256 declared at t=200", f)
	}
	if len(res.Repairs) < 2 {
		t.Fatalf("repairs = %+v, want at least shrink+agree", res.Repairs)
	}
	first := res.Repairs[0]
	if first.Kind != "shrink" || fmt.Sprint(first.Survivors) != "[0 2 3]" {
		t.Fatalf("first repair = %+v, want shrink over [0 2 3]", first)
	}
	if first.StartedAt < f.DeclaredAt {
		t.Fatalf("repair started at %g, before declaration at %g", first.StartedAt, f.DeclaredAt)
	}
	if got, want := pinOf(res), "34b95c38327baf2d/b4a6b9a9fc3910f7"; got != want {
		t.Errorf("pin = %s, golden %s", got, want)
	}
}

// TestAgreeAndsSurvivorFlags: Agree returns the AND over the survivors'
// contributions and excludes the failed rank's (never contributed) bits.
func TestAgreeAndsSurvivorFlags(t *testing.T) {
	cl := ftCluster(t, 1, 4, Crash{Rank: 2, At: 25})
	got := make([]uint64, 4)
	_, err := cl.Run(SRM, func(c *Comm) {
		for {
			if err := c.Barrier(); err != nil {
				break
			}
			c.Compute(10)
		}
		v, aerr := c.Agree(0xF0 | uint64(c.Rank()))
		if aerr != nil {
			t.Errorf("rank %d: Agree: %v", c.Rank(), aerr)
			return
		}
		got[c.Rank()] = v
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := (0xF0 | uint64(0)) & (0xF0 | uint64(1)) & (0xF0 | uint64(3))
	for r := 0; r < 4; r++ {
		if r == 2 {
			continue
		}
		if got[r] != want {
			t.Errorf("rank %d: Agree = %#x, want %#x", r, got[r], want)
		}
	}
}

// TestFTDisabledKeepsCrashSemantics: without SetFaultTolerance a crash
// still surfaces as a *RunError — the legacy contract is untouched.
func TestFTDisabledKeepsCrashSemantics(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	cl.SetFaultPlan(FaultPlan{Crashes: []Crash{{Rank: 3, At: 5}}})
	_, err := cl.Run(SRM, func(c *Comm) {
		c.Compute(10)
		c.Barrier()
	})
	var re *RunError
	if !errors.As(err, &re) || re.Rank != 3 {
		t.Fatalf("Run = %v, want *RunError for rank 3", err)
	}
	// And Agree/Shrink without FT is a plain error, not a hang.
	cl2 := mustCluster(t, 1, 2)
	_, err = cl2.Run(SRM, func(c *Comm) {
		if _, aerr := c.Agree(1); aerr == nil {
			t.Error("Agree without fault tolerance succeeded")
		}
		if _, serr := c.Shrink(); serr == nil {
			t.Error("Shrink without fault tolerance succeeded")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestDeadRankNotWaitedForever: a rank that simply stops calling
// collectives (without crashing) still deadlocks — FT only tolerates
// crashes the detector can see, and the report names the blocked ranks.
func TestNonCrashDropoutStillDeadlocks(t *testing.T) {
	cl := mustCluster(t, 1, 4)
	cl.SetFaultTolerance(DefaultFTConfig())
	_, err := cl.Run(SRM, func(c *Comm) {
		if c.Rank() == 0 {
			return // drops out silently; never crashes
		}
		c.Barrier()
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
}

// TestStallErrorSatellites: StallError carries the injected-fault summary
// and unwraps to ErrDeadline for errors.Is matching.
func TestStallErrorSatellites(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	cl.SetFaultPlan(FaultPlan{Seed: 9, Drop: 1, Reliable: true, Deadline: 2000})
	_, err := cl.Run(SRM, func(c *Comm) {
		buf := make([]byte, 4096)
		c.Bcast(buf, 0)
	})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run = %v, want *StallError", err)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatal("StallError does not match ErrDeadline")
	}
	if se.Faults.PutDrops == 0 {
		t.Fatalf("StallError.Faults = %v, want recorded drops", se.Faults)
	}
	if !strings.Contains(se.Error(), "faults") {
		t.Fatalf("StallError message %q does not mention faults", se.Error())
	}
}

// TestFTTraceClasses: detect/shrink/agree spans land in the trace.
func TestFTTraceClasses(t *testing.T) {
	cl := ftCluster(t, 2, 2, Crash{Rank: 1, At: 40})
	cl.SetTracing(true)
	res, err := cl.Run(SRM, chaosLoopBody(4, 64, nil))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("tracing enabled but Trace nil")
	}
	seen := map[string]bool{}
	for _, sp := range res.Trace.Spans() {
		seen[sp.Class.String()] = true
	}
	for _, cls := range []string{"detect", "shrink", "agree"} {
		if !seen[cls] {
			t.Errorf("trace has no %q span; classes seen: %v", cls, seen)
		}
	}
}

// chaosLoopBodyT is chaosLoopBodyCompute in continuation-passing form, for
// RunT on either engine.
func chaosLoopBodyT(rounds, bytes int, compute float64) func(*TComm, func()) {
	return func(tc *TComm, finish func()) {
		comm := tc
		buf, recv := make([]byte, bytes), make([]byte, bytes)
		sv := make([]float64, bytes/8)
		for i := range sv {
			sv[i] = float64(tc.Rank() + 1)
		}
		send := Float64Bytes(sv)
		done := 0
		var round, repair func()
		round = func() {
			if done >= rounds {
				repair()
				return
			}
			tc.Compute(compute, func() {
				after := func(err error) {
					if err == nil {
						done++
						round()
						return
					}
					if !errors.Is(err, ErrRankFailed) {
						panic(fmt.Sprintf("rank %d round %d: unexpected error %v", tc.Rank(), done, err))
					}
					repair()
				}
				if done%2 == 0 {
					comm.Bcast(buf, comm.Members()[0], after)
				} else {
					comm.Allreduce(send, recv, Float64, Sum, after)
				}
			})
		}
		repair = func() {
			comm.Shrink(func(nc *TComm, err error) {
				if err != nil {
					panic(err)
				}
				nc.Agree(uint64(1)<<done-1, func(agreed uint64, err error) {
					if err != nil {
						panic(err)
					}
					comm, done = nc, bits.TrailingZeros64(^agreed)
					if done >= rounds {
						finish()
						return
					}
					round()
				})
			})
		}
		round()
	}
}

// chaosCorpusPlan derives one seeded chaos schedule: every rank but 0
// crashes with probability rate somewhere in the run's window, three runs in
// ten slow one rank down for a quarter of it, and the wire drops 1% of the
// puts under reliable delivery.
func chaosCorpusPlan(ranks int, rate float64, seed int64) FaultPlan {
	const window = 10 * (25 + 20) * 2
	rng := rand.New(rand.NewSource(seed))
	plan := FaultPlan{Seed: uint64(seed), Deadline: 1e6, Drop: 0.01, Reliable: true}
	for r := 1; r < ranks; r++ {
		pCrash, at := rng.Float64(), rng.Float64()
		if pCrash < rate {
			plan.Crashes = append(plan.Crashes, Crash{Rank: r, At: at * window})
		}
	}
	pStall, stallRank, from := rng.Float64(), rng.Intn(ranks), rng.Float64()*window/2
	if pStall < 0.3 {
		plan.Stalls = []Stall{{Rank: stallRank, From: from, Until: from + window/4, Factor: 2}}
	}
	return plan
}

// chaosCorpusSchedule is schedule k (of four) of a (world, crash rate) cell of
// the corpus TestChaosCorpusGolden pins, and chaosCorpus visits all 48.
func chaosCorpusSchedule(ranks int, rate float64, k int) FaultPlan {
	return chaosCorpusPlan(ranks, rate, int64(1000*ranks+100*k)+int64(rate*100))
}

func chaosCorpus(visit func(name string, ranks int, plan FaultPlan)) {
	for _, ranks := range []int{8, 16, 32, 64} {
		for _, rate := range []float64{0.05, 0.15, 0.3} {
			for k := 0; k < 4; k++ {
				visit(fmt.Sprintf("chaos %d/%.2f seed %d", ranks, rate, k), ranks, chaosCorpusSchedule(ranks, rate, k))
			}
		}
	}
}

// TestChaosCorpusGolden pins, across builds, a seeded chaos corpus from both
// forms of body. Each (world, crash rate) cell chains the pins of its runs,
// each hashing the one before: four seeds of Run with the stall windows, then
// the same four of RunT without them (recorded when that engine had no
// per-task slowdown). Beyond the schedule and counters, a pin holds Failures
// and Repairs: every RepairRecord.Comm string, survivor list and the order of
// the records. Each plan must also read the same from RunT as from a blocking
// body: the stalled one against Run, the stall-free one against the same body
// run blocking (runTBlocking).
func TestChaosCorpusGolden(t *testing.T) {
	// They hold the behaviour recorded at e0cfe4b, before communicators became
	// shared records.
	golden := map[string]string{
		"8/0.05":  "98e37472c8c751fb/60859e4b8769b8d1",
		"8/0.15":  "818850dd18de18e8/98f02efa9564ef13",
		"8/0.30":  "98e37472c8c751fb/8e102a09befd511d",
		"16/0.05": "49770268dc0118da/0e4946f1796863a0",
		"16/0.15": "8c417e6424e3b8ab/6726a15353dc75f9",
		"16/0.30": "44e9cb04c904393b/7ff5beaaf7dcc13a",
		"32/0.05": "275e10ea6183718a/716ac9af63d53db0",
		"32/0.15": "467bcf0d03530499/56cad975a6859df3",
		"32/0.30": "69fb4aad542897e0/6f590294b42edb32",
		"64/0.05": "b10cb3d76a9e69d5/c50c7ea412f634e8",
		"64/0.15": "4c02b7475a0fdb5e/b14363dddd449ea3",
		"64/0.30": "d75213f170723114/2b485e6d67a04077",
	}
	for _, ranks := range []int{8, 16, 32, 64} {
		for _, rate := range []float64{0.05, 0.15, 0.3} {
			name := fmt.Sprintf("%d/%.2f", ranks, rate)
			pin, tasks := "", []*Result(nil)
			for k := 0; k < 4; k++ {
				cl := mustCluster(t, ranks/4, 4)
				cl.SetFaultTolerance(DefaultFTConfig())
				plan := chaosCorpusSchedule(ranks, rate, k)
				cl.SetFaultPlan(plan)
				res, err := cl.Run(SRM, chaosLoopBodyCompute(10, 256, 25, nil))
				if err != nil {
					t.Fatalf("%s seed %d procs: %v", name, k, err)
				}
				stalled := pinOf(res)
				pin = pinOf(res, pin)
				if res, err = cl.RunT(SRM, chaosLoopBodyT(10, 256, 25)); err != nil {
					t.Fatalf("%s seed %d tasks, stalled: %v", name, k, err)
				}
				if got := pinOf(res); got != stalled {
					t.Errorf("%s seed %d: the stalled plan diverges: tasks %s, procs %s", name, k, got, stalled)
				}

				plan.Stalls = nil
				cl.SetFaultPlan(plan)
				var fp [2]*Result
				for i, form := range bodyForms {
					if fp[i], err = form.run(cl, SRM, chaosLoopBodyT(10, 256, 25)); err != nil {
						t.Fatalf("%s seed %d %s: %v", name, k, form.name, err)
					}
				}
				if a, b := pinOf(fp[0]), pinOf(fp[1]); a != b {
					t.Errorf("%s seed %d: the forms of body diverge: procs %s, tasks %s", name, k, a, b)
				}
				tasks = append(tasks, fp[1])
			}
			for _, res := range tasks {
				pin = pinOf(res, pin)
			}
			if pin != golden[name] {
				t.Errorf("%s: pin %s, golden %s", name, pin, golden[name])
			}
		}
	}
}

// TestDeclarationSweepOrder pins the order in which one declared failure
// completes several pending rendezvous — ascending order of their key strings,
// whatever order they were begun in — and with it the format of
// RepairRecord.Comm. Rank 2 is the straggler of four sub-communicator shrinks
// begun in the order D, B, A, C after the world shrink every other rank ends
// in; as strings "[2 10 11]" < "[2 12]" < "[2 1]" < "[2 3 4]" < "world".
func TestDeclarationSweepOrder(t *testing.T) {
	subs := map[int]struct {
		members []int
		at      float64
	}{
		10: {[]int{2, 10, 11}, 30}, 11: {[]int{2, 10, 11}, 30}, // A
		3: {[]int{2, 3, 4}, 20}, 4: {[]int{2, 3, 4}, 20}, // B
		1:  {[]int{2, 1}, 40}, // C
		12: {[]int{2, 12}, 5}, // D
	}
	body := func(tc *TComm, done func()) {
		var spin func()
		spin = func() { tc.Compute(1, spin) }
		if tc.Rank() == 2 {
			spin() // until the crash
			return
		}
		finish := func() {
			tc.Shrink(func(_ *TComm, err error) {
				if err != nil {
					panic(err)
				}
				done()
			})
		}
		if s, ok := subs[tc.Rank()]; ok {
			tc.Compute(s.at, func() {
				tc.Sub(s.members).Shrink(func(sc *TComm, err error) {
					if err != nil || sc.Size() != len(s.members)-1 {
						panic(fmt.Sprintf("sub shrink: %v, %v", sc.Members(), err))
					}
					finish()
				})
			})
			return
		}
		finish()
	}
	want := []string{"[2 10 11]#0", "[2 12]#0", "[2 1]#0", "[2 3 4]#0", "world#0"}
	for _, form := range bodyForms {
		res, err := form.run(ftCluster(t, 4, 4, Crash{Rank: 2, At: 10}), SRM, body)
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		var got []string
		for _, rep := range res.Repairs {
			got = append(got, rep.Comm)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: repairs completed in order %q, want %q", form.name, got, want)
		}
	}
}

// TestWaitLabelsInDeadlockReport pins the text a deadlock report prints for a
// rank parked on a request's completion and on a rendezvous: both labels are
// formatted only when a report is built, and must read as they always have.
// A request helper's failure is still charged to the rank that issued it.
func TestWaitLabelsInDeadlockReport(t *testing.T) {
	cl := mustCluster(t, 1, 3)
	cl.SetFaultTolerance(DefaultFTConfig())
	_, err := cl.Run(SRM, func(c *Comm) {
		switch c.Rank() {
		case 1:
			c.IBcast(make([]byte, 8), 0).Wait() // rank 0 never joins
		case 2:
			c.Sub([]int{0, 2}).Agree(1) // nor here
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	waits := map[string]string{}
	for _, b := range de.Procs {
		waits[b.Name] = b.Waiting
	}
	if waits["rank1"] != "request ibcast#0 on rank 1" || waits["rank2"] != "agree [0 2]#0" {
		t.Errorf("blocked ranks wait on %q, want the request and rendezvous labels", waits)
	}
	if _, ok := waits["rank1.req0"]; !ok {
		t.Errorf("blocked = %q, want the helper rank1.req0 among them", waits)
	}

	_, err = mustCluster(t, 1, 3).Run(SRM, func(c *Comm) {
		if c.Rank() == 2 {
			c.IReduce(make([]byte, 8), make([]byte, 4), Float64, Sum, 2).Wait()
		}
	})
	var re *RunError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Errorf("Run = %v, want a *RunError for rank 2, whose helper failed", err)
	}
}

// TestRankFailedErrorsOutliveTheirRun: the errors a run hands its ranks, the
// member lists of the communicators they shrink to and the run's repair records
// are carved from memory of the run's own, which is the caller's to keep: three
// more runs of the cluster, each crashing another rank, leave them as they
// were. Every survivor's error is its own, and errors.As finds it.
func TestRankFailedErrorsOutliveTheirRun(t *testing.T) {
	const P, dead = 8, 3
	cl := ftCluster(t, 2, 4)
	run := func(crash int) (errs []error, members [][]int, res *Result) {
		t.Helper()
		cl.SetFaultPlan(FaultPlan{Crashes: []Crash{{Rank: crash, At: 40}}})
		errs, members = make([]error, P), make([][]int, P)
		res, err := cl.Run(SRM, func(c *Comm) {
			c.Compute(250)
			errs[c.Rank()] = c.Barrier()
			nc, err := c.Shrink()
			if err != nil {
				panic(err)
			}
			members[c.Rank()] = nc.Members()
		})
		if err != nil {
			t.Fatalf("Run crashing rank %d: %v", crash, err)
		}
		return errs, members, res
	}
	print := func(errs []error, members [][]int, res *Result) string {
		var b strings.Builder
		for r, err := range errs {
			fmt.Fprintf(&b, "rank %d: %v, %v\n", r, err, members[r])
		}
		fmt.Fprintf(&b, "%+v", res.Repairs)
		return b.String()
	}
	errs, members, res := run(dead)
	want := print(errs, members, res)
	for _, crash := range []int{5, 6, 1} {
		run(crash)
	}
	if got := print(errs, members, res); got != want {
		t.Errorf("what the first run handed out changed over three more runs:\n%s\nwas\n%s", got, want)
	}
	survivors := []int{0, 1, 2, 4, 5, 6, 7}
	seen := map[*RankFailedError]int{}
	for r, err := range errs {
		if r == dead {
			continue
		}
		var rfe *RankFailedError
		if !errors.As(err, &rfe) || rfe.Rank != r || rfe.Op != "barrier" || !slices.Equal(rfe.Failed, []int{dead}) {
			t.Errorf("rank %d kept %v, want its own *RankFailedError naming rank %d", r, err, dead)
			continue
		}
		if prev, dup := seen[rfe]; dup {
			t.Errorf("ranks %d and %d hold the same *RankFailedError", prev, r)
		}
		seen[rfe] = r
		if !slices.Equal(members[r], survivors) {
			t.Errorf("rank %d kept Members %v, want %v", r, members[r], survivors)
		}
	}
}
