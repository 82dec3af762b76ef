package exp

// Chaos campaigns for the fault-tolerance subsystem: seeded randomized
// crash/drop/stall schedules swept over world size and fault rate, with
// every rank running the canonical survivor protocol (collective rounds,
// on failure Shrink + Agree on the completed-round prefix, resume from the
// minimum). The campaign measures what the robustness claims need:
// completion rate (every run must either finish on the survivors or
// return a structured error — never hang), failure-detection latency,
// repair (rendezvous) latency, and end-to-end recovery time. Campaigns
// are deterministic: the schedule of every run is a pure function of
// (BaseSeed, grid point, run index), and runs are swept with the same
// slot-addressed worker pool as the figures, so reports are byte-identical
// at any -j.

import (
	"errors"
	"fmt"
	"math/bits"

	"srmcoll"
	"srmcoll/internal/fault"
)

// ChaosConfig describes one campaign grid.
type ChaosConfig struct {
	BaseSeed uint64    // root of every run's schedule derivation
	Seeds    int       // runs per (ranks, rate) grid point
	Ranks    []int     // world sizes (tasks; 4 per SMP node)
	Rates    []float64 // per-rank crash probability (rank 0 is never crashed)
	Rounds   int       // collective rounds per run (alternating bcast/allreduce)
	Bytes    int       // payload bytes per collective (multiple of 8)
	Compute  float64   // per-round compute (us), the window crashes land in
	DropRate float64   // wire drop probability (reliable delivery enabled when > 0)
	StallP   float64   // probability of one 2x stall window per run
	Deadline float64   // virtual-time watchdog; expiry counts as a hang
}

// DefaultChaosConfig is the full campaign: 48 runs spanning 8-64 ranks.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		BaseSeed: 0xc4a05,
		Seeds:    4,
		Ranks:    []int{8, 16, 32, 64},
		Rates:    []float64{0.05, 0.15, 0.3},
		Rounds:   10,
		Bytes:    256,
		Compute:  25,
		DropRate: 0.01,
		StallP:   0.3,
		Deadline: 1e6,
	}
}

// QuickChaosConfig is the CI smoke campaign: 8 runs, two world sizes.
func QuickChaosConfig() ChaosConfig {
	c := DefaultChaosConfig()
	c.Seeds = 2
	c.Ranks = []int{8, 16}
	c.Rates = []float64{0.1, 0.3}
	return c
}

// ChaosRun is the outcome of one seeded run.
type ChaosRun struct {
	Ranks    int
	Rate     float64
	Seed     uint64 // derived schedule seed
	Crashes  int    // ranks scheduled to crash
	Outcome  string // "ok", "stall", "deadlock", or "error"
	Detail   string `json:",omitempty"` // error text for non-ok outcomes
	Time     float64
	Failures int     // rank failures declared
	Repairs  int     // completed shrink/agree rendezvous
	Detect   float64 // mean declaration latency (crash -> declared), us
	Repair   float64 // mean rendezvous latency (first entry -> release), us
	Recovery float64 // first crash -> last repair completed, us
}

// ChaosPoint aggregates one (ranks, rate) grid point.
type ChaosPoint struct {
	Ranks     int
	Rate      float64
	Runs      int
	Completed int // runs with Outcome "ok"
	Crashes   int
	Failures  int
	Detect    float64 // mean over runs with failures
	Repair    float64
	Recovery  float64
}

// ChaosReport is the full campaign result, JSON-serializable for
// srmbench chaos -json.
type ChaosReport struct {
	Config ChaosConfig
	Runs   []ChaosRun
	Points []ChaosPoint
}

// chaosPlan derives one run's fault plan from its seed. Draw counts per
// decision are fixed, so schedules are stable against config changes that
// do not touch the drawn quantities.
func chaosPlan(cfg ChaosConfig, ranks int, rate float64, seed uint64) srmcoll.FaultPlan {
	rng := fault.Splitmix{State: seed ^ 0x9e3779b97f4a7c15}
	window := float64(cfg.Rounds) * (cfg.Compute + 20) * 2
	plan := srmcoll.FaultPlan{Seed: seed, Deadline: cfg.Deadline}
	// Rank 0 is never crashed: it anchors the survivor group (and keeps
	// the broadcast root alive in the first rounds).
	for r := 1; r < ranks; r++ {
		pCrash, at := rng.Float(), rng.Float()
		if pCrash < rate {
			plan.Crashes = append(plan.Crashes, srmcoll.Crash{Rank: r, At: at * window})
		}
	}
	pStall, stallRank, stallFrom := rng.Float(), rng.Float(), rng.Float()
	if cfg.StallP > 0 && pStall < cfg.StallP {
		from := stallFrom * window / 2
		plan.Stalls = []srmcoll.Stall{{
			Rank: int(stallRank * float64(ranks)), From: from, Until: from + window/4, Factor: 2,
		}}
	}
	if cfg.DropRate > 0 {
		plan.Drop = cfg.DropRate
		plan.Reliable = true
	}
	return plan
}

// chaosBody is the survivor protocol: Rounds collectives alternating
// bcast/allreduce; on a member-failure error, or after the final round,
// Shrink the communicator and Agree on the bitmask of completed rounds,
// resuming from the survivors' minimum so per-communicator call streams
// realign. Terminates once every survivor agrees all rounds are done.
func chaosBody(cfg ChaosConfig) func(*srmcoll.Comm) {
	return func(c *srmcoll.Comm) {
		comm := c
		buf := make([]byte, cfg.Bytes)
		send := make([]byte, cfg.Bytes)
		recv := make([]byte, cfg.Bytes)
		done := 0
		for {
			var err error
			if done < cfg.Rounds {
				c.Compute(cfg.Compute)
				if done%2 == 0 {
					err = comm.Bcast(buf, comm.Members()[0])
				} else {
					err = comm.Allreduce(send, recv, srmcoll.Float64, srmcoll.Sum)
				}
				if err == nil {
					done++
					continue
				}
				var rfe *srmcoll.RankFailedError
				if !errors.As(err, &rfe) {
					panic(fmt.Sprintf("chaos: rank %d round %d: unexpected error %v", c.Rank(), done, err))
				}
			}
			nc, serr := comm.Shrink()
			if serr != nil {
				panic(serr)
			}
			agreed, aerr := nc.Agree(1<<done - 1) // the rounds below done
			if aerr != nil {
				panic(aerr)
			}
			comm = nc
			done = bits.TrailingZeros64(^agreed) // the rounds every survivor completed
			if done >= cfg.Rounds {
				return
			}
		}
	}
}

// chaosRun executes one seeded run and classifies its outcome.
func chaosRun(cfg ChaosConfig, ranks int, rate float64, seed uint64) ChaosRun {
	plan := chaosPlan(cfg, ranks, rate, seed)
	run := ChaosRun{Ranks: ranks, Rate: rate, Seed: seed, Crashes: len(plan.Crashes)}
	cl, err := srmcoll.NewCluster(srmcoll.ColonySP(ranks/4, 4))
	if err != nil {
		panic(err)
	}
	cl.SetFaultPlan(plan)
	cl.SetFaultTolerance(srmcoll.DefaultFTConfig())
	res, err := cl.Run(srmcoll.SRM, chaosBody(cfg))
	if err != nil {
		var se *srmcoll.StallError
		var de *srmcoll.DeadlockError
		switch {
		case errors.As(err, &se):
			run.Outcome = "stall"
		case errors.As(err, &de):
			run.Outcome = "deadlock"
		default:
			run.Outcome = "error"
		}
		run.Detail = err.Error()
		return run
	}
	run.Outcome = "ok"
	run.Time = res.Time
	run.Failures = len(res.Failures)
	run.Repairs = len(res.Repairs)
	if len(res.Failures) > 0 {
		var detect, firstCrash float64
		firstCrash = res.Failures[0].CrashedAt
		for _, f := range res.Failures {
			detect += f.DeclaredAt - f.CrashedAt
			if f.CrashedAt < firstCrash {
				firstCrash = f.CrashedAt
			}
		}
		run.Detect = detect / float64(len(res.Failures))
		var lastRepair float64
		for _, rep := range res.Repairs {
			run.Repair += rep.CompletedAt - rep.StartedAt
			if rep.CompletedAt > lastRepair {
				lastRepair = rep.CompletedAt
			}
		}
		if len(res.Repairs) > 0 {
			run.Repair /= float64(len(res.Repairs))
			run.Recovery = lastRepair - firstCrash
		}
	}
	return run
}

// RunChaos executes the campaign. Runs are independent and fan across the
// sweep worker pool; each writes only its own slot, so the report is
// byte-identical at any worker count.
func RunChaos(cfg ChaosConfig) *ChaosReport {
	type point struct {
		ranks int
		rate  float64
	}
	var grid []point
	for _, r := range cfg.Ranks {
		for _, rate := range cfg.Rates {
			grid = append(grid, point{r, rate})
		}
	}
	runs := make([]ChaosRun, len(grid)*cfg.Seeds)
	forEach(len(runs), func(i int) {
		pt := grid[i/cfg.Seeds]
		seed := nextSeed(cfg.BaseSeed ^ uint64(i)*0x9e3779b97f4a7c15)
		runs[i] = chaosRun(cfg, pt.ranks, pt.rate, seed)
	})
	rep := &ChaosReport{Config: cfg, Runs: runs}
	for gi, pt := range grid {
		p := ChaosPoint{Ranks: pt.ranks, Rate: pt.rate}
		var withFailures int
		for k := 0; k < cfg.Seeds; k++ {
			r := runs[gi*cfg.Seeds+k]
			p.Runs++
			p.Crashes += r.Crashes
			p.Failures += r.Failures
			if r.Outcome == "ok" {
				p.Completed++
			}
			if r.Failures > 0 {
				withFailures++
				p.Detect += r.Detect
				p.Repair += r.Repair
				p.Recovery += r.Recovery
			}
		}
		if withFailures > 0 {
			p.Detect /= float64(withFailures)
			p.Repair /= float64(withFailures)
			p.Recovery /= float64(withFailures)
		}
		rep.Points = append(rep.Points, p)
	}
	return rep
}

// ChaosTable renders the campaign aggregates as a srmbench table.
func ChaosTable(rep *ChaosReport) *Table {
	t := &Table{
		ID:    "chaos",
		Title: "fault-tolerance chaos campaign (completion and recovery latency)",
		Cols:  []string{"tasks", "rate", "runs", "ok", "crashes", "detect_us", "repair_us", "recovery_us"},
		Prec:  2,
	}
	for _, p := range rep.Points {
		t.Rows = append(t.Rows, []float64{
			float64(p.Ranks), p.Rate, float64(p.Runs), float64(p.Completed),
			float64(p.Crashes), p.Detect, p.Repair, p.Recovery,
		})
	}
	return t
}

// Hangs counts the campaign runs that did not terminate cleanly: stalls,
// deadlocks, and unexpected errors. The robustness acceptance bar is zero.
func (r *ChaosReport) Hangs() int {
	n := 0
	for _, run := range r.Runs {
		if run.Outcome != "ok" {
			n++
		}
	}
	return n
}

// nextSeed derives a run's seed from state: the first draw of a generator
// started there.
func nextSeed(state uint64) uint64 { return (&fault.Splitmix{State: state}).Next() }
