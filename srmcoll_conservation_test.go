package srmcoll

import (
	"fmt"
	"testing"

	"srmcoll/internal/fault"
	"srmcoll/internal/rma"
)

// simulateKeeping is Cluster.run for the tests that read what a simulation
// leaves behind, which Run drops on return: it hands the simulation back with
// the outcome.
func simulateKeeping(cl *Cluster, engine Engine, spawn func(*simulation)) (*simulation, *Result, error) {
	sm, err := cl.prepare(SRM, engine)
	if err != nil {
		return nil, nil, err
	}
	spawn(sm)
	res, err := sm.outcome()
	return sm, res, err
}

// conserved holds the RMA domain's ledger of a finished simulation to the run's
// statistics and the injector's summary. Every transmission is a first one, a
// retransmission or an injected duplicate; every transmission was dropped,
// suppressed as a duplicate, refused by a dead target, landed, discarded with a
// dead target's pending list, or never got to the end of its way; and a put
// frame that is not idle again is waiting for one of the last.
func conserved(sm *simulation) error {
	ty, st := sm.dom.Tally(), sm.m.Stats
	var inj fault.Summary
	if sm.m.Faults != nil {
		inj = sm.m.Faults.Summary()
	}
	if want := ty.Puts + st.Retries + inj.PutDups; ty.Sent != want {
		return fmt.Errorf("%d transmissions, want %d first ones + %d retries + %d injected duplicates = %d",
			ty.Sent, ty.Puts, st.Retries, inj.PutDups, want)
	}
	if fates := ty.Landed + st.Drops + st.DupsSuppressed + st.DeadDrops + ty.Discarded + ty.Unresolved; ty.Sent != fates {
		return fmt.Errorf("%d transmissions, but %d landed + %d dropped + %d suppressed + %d refused dead + %d discarded + %d unresolved = %d",
			ty.Sent, ty.Landed, st.Drops, st.DupsSuppressed, st.DeadDrops, ty.Discarded, ty.Unresolved, fates)
	}
	if busy := ty.Frames - ty.Idle; busy > ty.Unresolved {
		return fmt.Errorf("%d of %d put frames not idle with %d transmissions unresolved", busy, ty.Frames, ty.Unresolved)
	}
	return nil
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

// TestPutConservation is the put path's conservation law (conserved) over the
// runs that lose, repeat, retransmit, refuse and discard puts: the 48 crash,
// stall and drop schedules of the chaos corpus under fault tolerance, the
// seeded fault replay's plan (drops, duplicates, delays, lost acks, a storm, a
// stall), the benchmark's four lossy training cells at 2x4 — request streams
// over the four allreduce families — and a wire that drops and duplicates
// without reliable delivery, whose runs end in deadlock with puts lost. Each
// from a blocking body and from a continuation body on the Tasks engine.
func TestPutConservation(t *testing.T) {
	type scenario struct {
		name   string
		cl     *Cluster
		body   func(*Comm)
		bodyT  func(*TComm, func())
		mayErr bool // the run may end in a structured error; the ledger must balance all the same
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

	var total rma.Tally
	for _, sc := range scenarios {
		for _, form := range []struct {
			name   string
			engine Engine
			spawn  func(*simulation)
		}{
			{"blocking body", EngineProcs, func(sm *simulation) { sm.spawnProcs(sc.body) }},
			{"continuation body", EngineTasks, func(sm *simulation) { sm.spawnTasks(sc.bodyT) }},
		} {
			sm, _, err := simulateKeeping(sc.cl, form.engine, form.spawn)
			if sm == nil || err != nil && !sc.mayErr {
				t.Fatalf("%s, %s: %v", sc.name, form.name, err)
			}
			if err := conserved(sm); err != nil {
				t.Errorf("%s, %s: %v", sc.name, form.name, err)
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
