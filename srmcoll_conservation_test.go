package srmcoll

import (
	"errors"
	"fmt"
	"testing"

	"srmcoll/internal/check"
	"srmcoll/internal/rma"
)

// simulateKeeping is Cluster.run for the tests that read what a simulation
// leaves behind, which Run drops on return: it hands the simulation back with
// the outcome.
func simulateKeeping(cl *Cluster, spawn func(*simulation)) (*simulation, *Result, error) {
	sm, err := cl.prepare(SRM)
	if err != nil {
		return nil, nil, err
	}
	spawn(sm)
	res, err := sm.outcome()
	return sm, res, err
}

// faultProbeBodyT is faultProbeBody's sequence of collectives in continuation
// form, and trainBody / trainBodyT the benchmark's training step in both forms:
// per step, buckets non-blocking allreduces issued behind a compute phase each
// and waited for together.
func faultProbeBodyT(tc *TComm, done func()) {
	must := func(next func()) func(error) {
		return func(err error) {
			if err != nil {
				panic(err)
			}
			next()
		}
	}
	vals := make([]int64, 128)
	for i := range vals {
		vals[i] = int64(tc.Rank()+1) * int64(i+3)
	}
	send := Int64Bytes(vals)
	bcast, red, allred := make([]byte, 1536), make([]byte, len(send)), make([]byte, len(send))
	tc.Bcast(bcast, 0, must(func() {
		tc.Reduce(send, red, Int64, Sum, 1%tc.Size(), must(func() {
			tc.Allreduce(send, allred, Int64, Sum, must(func() {
				tc.Barrier(must(done))
			}))
		}))
	}))
}

const trainTestSteps, trainTestBuckets, trainTestBytes, trainTestCompute = 2, 8, 32 << 10, 60

func trainBody(c *Comm) {
	send, recv := make([]byte, trainTestBuckets*trainTestBytes), make([]byte, trainTestBuckets*trainTestBytes)
	var reqs [trainTestBuckets]*Request
	for s := 0; s < trainTestSteps; s++ {
		for b := range reqs {
			c.Compute(trainTestCompute)
			reqs[b] = c.IAllreduce(send[b*trainTestBytes:(b+1)*trainTestBytes], recv[b*trainTestBytes:(b+1)*trainTestBytes], Float64, Sum)
		}
		for _, rq := range reqs {
			if err := rq.Wait(); err != nil {
				panic(err)
			}
		}
	}
}

func trainBodyT(tc *TComm, done func()) {
	send, recv := make([]byte, trainTestBuckets*trainTestBytes), make([]byte, trainTestBuckets*trainTestBytes)
	var reqs [trainTestBuckets]*TRequest
	var issue, wait func(s, b int)
	issue = func(s, b int) {
		if b == trainTestBuckets {
			wait(s, 0)
			return
		}
		tc.Compute(trainTestCompute, func() {
			tc.IAllreduce(send[b*trainTestBytes:(b+1)*trainTestBytes], recv[b*trainTestBytes:(b+1)*trainTestBytes], Float64, Sum, func(rq *TRequest) {
				reqs[b] = rq
				issue(s, b+1)
			})
		})
	}
	wait = func(s, b int) {
		switch {
		case b < trainTestBuckets:
			reqs[b].Wait(func(err error) {
				if err != nil {
					panic(err)
				}
				wait(s, b+1)
			})
		case s+1 < trainTestSteps:
			issue(s+1, 0)
		default:
			done()
		}
	}
	issue(0, 0)
}

// TestPutConservation runs the put path's conservation law, which every run
// holds itself to (rma.Domain.Conserved), over the runs that lose, repeat,
// retransmit, refuse and discard puts: the 48 crash, stall and drop schedules
// of the chaos corpus under fault tolerance, the seeded fault replay's plan
// (drops, duplicates, delays, lost acks, a storm, a stall), the benchmark's four
// lossy training cells at 2x4 — request streams over the four allreduce
// families — a wire that drops and duplicates without reliable delivery, whose
// runs end in deadlock with puts lost, and a reliable wire that drops every
// put, cut off at its deadline with its frames waiting for their ack timeouts.
// Each from a blocking body and from a continuation body. What it checks
// itself is that the corpus makes every fate occur.
func TestPutConservation(t *testing.T) {
	type scenario struct {
		name   string
		cl     *Cluster
		body   func(*Comm)
		bodyT  func(*TComm, func())
		mayErr bool // the run may end in a structured error, but not in a *check.LedgerError
	}
	var scenarios []scenario
	chaosCorpus(func(name string, ranks int, plan FaultPlan) {
		cl := mustCluster(t, ranks/4, 4)
		cl.SetFaultTolerance(DefaultFTConfig())
		cl.SetFaultPlan(plan)
		scenarios = append(scenarios, scenario{name, cl, chaosLoopBodyCompute(10, 256, 25, nil), chaosLoopBodyT(10, 256, 25), false})
	})
	replay := mustCluster(t, 4, 2)
	replay.SetFaultPlan(FaultPlan{
		Seed: 1234, Drop: 0.08, Dup: 0.04, Delay: 0.1, DelayMax: 15,
		AckDrop: 0.05, Reliable: true,
		Storms: []Storm{{Node: 1, From: 0, Until: 5000, Extra: 25}},
		Stalls: []Stall{{Rank: 2, From: 0, Until: 100000, Factor: 2}},
	})
	scenarios = append(scenarios, scenario{"fault replay", replay, faultProbeBody(make([][]byte, 8)), faultProbeBodyT, false})
	for i, alg := range []AllreduceAlg{AllreduceAuto, AllreduceRing, AllreduceRHD, AllreduceDualRoot} {
		cl := mustCluster(t, 2, 4)
		cl.SetVariant(Variant{Allreduce: alg})
		cl.SetFaultPlan(FaultPlan{Seed: uint64(77 + i), Drop: 0.01, Reliable: true, AckTimeout: 50, Deadline: 5e6})
		scenarios = append(scenarios, scenario{fmt.Sprintf("train %s", alg), cl, trainBody, trainBodyT, false})
	}
	for seed := uint64(1); seed <= 4; seed++ {
		cl := mustCluster(t, 4, 2)
		cl.SetFaultPlan(FaultPlan{Seed: seed, Drop: 0.1, Dup: 0.3, Delay: 0.2, DelayMax: 10, Deadline: 1e5})
		scenarios = append(scenarios, scenario{fmt.Sprintf("unreliable drop+dup seed %d", seed), cl, faultProbeBody(make([][]byte, 8)), faultProbeBodyT, true})
	}
	cut := mustCluster(t, 2, 1)
	cut.SetFaultPlan(FaultPlan{Seed: 1, Drop: 1, Reliable: true, Deadline: 20000})
	scenarios = append(scenarios, scenario{"deadline cut", cut, faultProbeBody(make([][]byte, 2)), faultProbeBodyT, true})

	var total rma.Tally
	for _, sc := range scenarios {
		for _, form := range []struct {
			name  string
			spawn func(*simulation)
		}{
			{"blocking body", func(sm *simulation) { sm.spawnProcs(sc.body) }},
			{"continuation body", func(sm *simulation) { sm.spawnTasks(sc.bodyT) }},
		} {
			sm, _, err := simulateKeeping(sc.cl, form.spawn)
			var le *check.LedgerError
			if sm == nil || err != nil && (!sc.mayErr || errors.As(err, &le)) {
				t.Fatalf("%s, %s: %v", sc.name, form.name, err)
			}
			ty := sm.dom.Tally()
			total.Sent += ty.Sent
			total.Landed += ty.Landed
			total.Discarded += ty.Discarded
			total.Unresolved += ty.Unresolved
		}
	}
	// The law is only worth what the corpus makes of it: every fate occurs.
	t.Logf("%d transmissions: %d landed, %d discarded, %d unresolved", total.Sent, total.Landed, total.Discarded, total.Unresolved)
	if total.Discarded == 0 || total.Unresolved == 0 {
		t.Errorf("the scenarios discard %d deferred landings and leave %d transmissions unresolved: want both to occur", total.Discarded, total.Unresolved)
	}
}

// TestLedgerErrorNamesTheClause: a run whose books do not balance fails with a
// *check.LedgerError naming the clause — here a dead drop the statistics count
// that no transmission of the ledger went to. TestPoolBalancedAtHandBack plants
// a pooled buffer nobody gave back.
func TestLedgerErrorNamesTheClause(t *testing.T) {
	sm, err := mustCluster(t, 2, 2).prepare(SRM)
	if err != nil {
		t.Fatal(err)
	}
	sm.spawnTasks(faultProbeBodyT)
	sm.m.Stats.DeadDrops++
	res, err := sm.outcome()
	var le *check.LedgerError
	if res != nil || !errors.As(err, &le) || le.Clause != "fates" {
		t.Errorf("planted an uncounted dead drop: the run ended with %v, want a fates *check.LedgerError", err)
	}
}
