package srmcoll

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
// fault tolerance over one is refused before any rank runs, from Run and from
// RunT alike. Without fault tolerance the baselines run as ever.
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

// ftFingerprint summarizes everything observable about a recovery run.
func ftFingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "time=%.17g\n", res.Time)
	for r, t := range res.PerRank {
		fmt.Fprintf(&b, "rank%d=%.17g\n", r, t)
	}
	fmt.Fprintf(&b, "stats=%s\nfaults=%s\n", res.Stats.String(), res.Faults.String())
	for _, f := range res.Failures {
		fmt.Fprintf(&b, "failure rank=%d crashed=%.17g declared=%.17g\n", f.Rank, f.CrashedAt, f.DeclaredAt)
	}
	for _, rep := range res.Repairs {
		fmt.Fprintf(&b, "repair %s %s [%.17g, %.17g] survivors=%v\n",
			rep.Kind, rep.Comm, rep.StartedAt, rep.CompletedAt, rep.Survivors)
	}
	return b.String()
}

// TestRecoveryReplaysBitIdentically: the whole crash → detect → shrink →
// rerun timeline is a deterministic function of the plan.
func TestRecoveryReplaysBitIdentically(t *testing.T) {
	run := func() string {
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
		return ftFingerprint(res)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("recovery timeline not deterministic:\n--- first\n%s--- second\n%s", a, b)
	}
	if !strings.Contains(a, "failure rank=5") || !strings.Contains(a, "failure rank=2") {
		t.Fatalf("fingerprint missing failures:\n%s", a)
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
	// Golden run fingerprint: replay must keep producing these exact values.
	cl2 := ftCluster(t, 2, 2, Crash{Rank: 1, At: 40})
	res2, err := cl2.Run(SRM, chaosLoopBody(4, 64, nil))
	if err != nil {
		t.Fatalf("replay Run: %v", err)
	}
	if ftFingerprint(res) != ftFingerprint(res2) {
		t.Fatalf("golden timeline diverged between identical runs:\n%s\nvs\n%s",
			ftFingerprint(res), ftFingerprint(res2))
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

// TestChaosCorpusGolden pins, across builds, what the benchmark's digest
// leaves out: Failures and Repairs (every RepairRecord.Comm string, survivor
// list and the order of the records) next to the times and counters, for a
// seeded chaos corpus on both engines. Each golden is the SHA-256 over the
// ftFingerprints of one (world, crash rate) cell: four seeds of Run with the
// stall windows, then the same four of RunT on the Tasks engine without them
// (recorded when that engine had no per-task slowdown). Beyond the goldens,
// each plan must read the same on the Tasks engine as from a blocking body:
// the stalled one against Run, the stall-free one against RunT on EngineProcs.
func TestChaosCorpusGolden(t *testing.T) {
	// Recorded at e0cfe4b, before communicators became shared records.
	golden := map[string]string{
		"8/0.05":  "3be4231425681b1f8efbd6b23f75bc74077bb0e6df6d13d377d2f654211dd49a",
		"8/0.15":  "5920540e9936ef734aa4628e112508f927006f540af12c3c41df4b1d0a39beba",
		"8/0.30":  "35fc8e77655746939586f9798d3584c2e7070205a6fbd9ae4352af3228ae8709",
		"16/0.05": "20718cbfc9aebe291dc4a83d346412c08b2851a1d10f3d49c419eab64056f9d3",
		"16/0.15": "c0f442351735839fa27b09331f9c262e896cbf2a44d96389dd5e1e30e1d7c500",
		"16/0.30": "f113dbfffe086d82b6940372615a357b1c8f9f3f2a014245bd7f0afe231bd49a",
		"32/0.05": "7bc43768389e140a9e35b666cde7bfba634f68dd258b071969c43976111eb6ff",
		"32/0.15": "aa0193ea05940f2380d9adc707c775af9cd7cd393939008e72847952934d581b",
		"32/0.30": "dbfbc4ab5d46bee1cf9f9c6f5cfb99b7c219a2751becebfd328ac31aebf4471b",
		"64/0.05": "294cd8e7dfa9164675eb6241cada445ae468ff81140a4774c59a3d44d51ee593",
		"64/0.15": "3f995a14073cf9745e41d9a4071efc5959141e0c82cc63634d8cd407e827b6ed",
		"64/0.30": "e4413ccc5a678e14b78bb137d7087cba8bf8d15dd1712f81225c9fa15ba382f3",
	}
	for _, ranks := range []int{8, 16, 32, 64} {
		for _, rate := range []float64{0.05, 0.15, 0.3} {
			name := fmt.Sprintf("%d/%.2f", ranks, rate)
			h := sha256.New()
			var tasks []string
			for k := 0; k < 4; k++ {
				cl := mustCluster(t, ranks/4, 4)
				cl.SetFaultTolerance(DefaultFTConfig())
				plan := chaosCorpusSchedule(ranks, rate, k)
				cl.SetFaultPlan(plan)
				res, err := cl.Run(SRM, chaosLoopBodyCompute(10, 256, 25, nil))
				if err != nil {
					t.Fatalf("%s seed %d procs: %v", name, k, err)
				}
				stalled := ftFingerprint(res)
				io.WriteString(h, stalled)
				cl.SetEngine(EngineTasks)
				if res, err = cl.RunT(SRM, chaosLoopBodyT(10, 256, 25)); err != nil {
					t.Fatalf("%s seed %d tasks, stalled: %v", name, k, err)
				}
				if fp := ftFingerprint(res); fp != stalled {
					t.Errorf("%s seed %d: the stalled plan diverges:\n--- tasks\n%s--- procs\n%s", name, k, fp, stalled)
				}

				plan.Stalls = nil
				cl.SetFaultPlan(plan)
				var fp [2]string
				for i, eng := range []Engine{EngineTasks, EngineProcs} {
					cl.SetEngine(eng)
					res, err := cl.RunT(SRM, chaosLoopBodyT(10, 256, 25))
					if err != nil {
						t.Fatalf("%s seed %d %s: %v", name, k, eng, err)
					}
					fp[i] = ftFingerprint(res)
				}
				if fp[0] != fp[1] {
					t.Errorf("%s seed %d: engines diverge:\n--- tasks\n%s--- procs\n%s", name, k, fp[0], fp[1])
				}
				tasks = append(tasks, fp[0])
			}
			for _, fp := range tasks {
				io.WriteString(h, fp)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != golden[name] {
				t.Errorf("%s: fingerprint digest\n got %s\nwant %s", name, got, golden[name])
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
	for _, eng := range []Engine{EngineProcs, EngineTasks} {
		cl := ftCluster(t, 4, 4, Crash{Rank: 2, At: 10})
		cl.SetEngine(eng)
		res, err := cl.RunT(SRM, body)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		var got []string
		for _, rep := range res.Repairs {
			got = append(got, rep.Comm)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: repairs completed in order %q, want %q", eng, got, want)
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
