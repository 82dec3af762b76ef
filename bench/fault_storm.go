package main

import (
	"errors"
	"fmt"
	"hash"
	"slices"

	"srmcoll"
)

// fault_storm: the robustness user — seeded crash/drop/stall schedules
// over world size and crash rate, every rank running the survivor
// protocol (collective rounds; on a member failure Shrink, Agree on the
// completed-round prefix, resume from the minimum), plus one large
// ScaleAllreduce over a lossy wire under an interrupt storm. The plan
// derivation and the survivor body are a frozen copy of internal/exp's
// chaos campaign.

const (
	stormRounds   = 10
	stormBytes    = 256
	stormCompute  = 25.0
	stormDrop     = 0.01
	stormStallP   = 0.3
	stormDeadline = 1e6
	stormTPN      = 4
)

type faultStorm struct {
	send, buf, recv *arena // one row per rank, reused by every run
	payload         []byte // what rank 0 broadcasts

	// Per-rank record of the run in flight, read after it returns.
	members [][]int // communicator membership at the rank's last successful allreduce
	sawBuf  []bool  // rank's latest broadcast completed
	sawRecv []bool  // rank's latest allreduce completed
	alive   []bool  // rank returned from the body: it did not crash

	recovery    float64 // sum over runs with a declared failure
	withFailure int
}

func buildFaultStorm(seed uint64, smoke bool) *instance {
	rg := newRNG(seed, "fault_storm")
	worlds, rates, seeds := []int{8, 16, 32, 64}, []float64{0.05, 0.15, 0.3}, 32
	scaleNodes := 2048
	if smoke {
		worlds, rates, seeds = []int{8, 16}, []float64{0.15, 0.3}, 3
		scaleNodes = 32
	}
	maxRanks := worlds[len(worlds)-1]
	f := &faultStorm{
		send: newArena(maxRanks, stormBytes), buf: newArena(maxRanks, stormBytes), recv: newArena(maxRanks, stormBytes),
		payload: make([]byte, stormBytes),
		members: make([][]int, maxRanks), sawBuf: make([]bool, maxRanks), sawRecv: make([]bool, maxRanks), alive: make([]bool, maxRanks),
	}
	rg.fillInts(f.send.buf)
	rg.fillInts(f.payload)

	in := &instance{
		inputs: f.send,
		begin:  func() { f.recovery, f.withFailure = 0, 0 },
		extras: f.extras,
	}
	for _, ranks := range worlds {
		for _, rate := range rates {
			for k := 0; k < seeds; k++ {
				in.cells = append(in.cells, f.cell(ranks, rate, rg.derive()))
			}
		}
	}

	// The large lossy run: reliable delivery's ack and retransmit timers at
	// 16,384 ranks, with one node's deliveries slowed by an interrupt storm.
	scl := mustCluster(srmcoll.ColonySP(scaleNodes, 8))
	scl.SetFaultPlan(srmcoll.FaultPlan{
		Seed: rg.derive(), Drop: stormDrop, Reliable: true, Deadline: stormDeadline,
		Storms: []srmcoll.Storm{{Node: rg.intn(scaleNodes), From: 20, Until: 600, Extra: 9}},
	})
	in.cells = append(in.cells, cell{
		name: fmt.Sprintf("srmcoll.ScaleAllreduce:tasks+drop+storm/%d/%d", scaleNodes*8, ladderBytes),
		run: func(h hash.Hash) cellOut {
			res, err := scl.ScaleAllreduce(srmcoll.ScaleOptions{Bytes: ladderBytes, Reps: 1, Engine: srmcoll.ScaleTasks, Verify: true})
			if err != nil {
				return cellOut{fail: errString(err)}
			}
			hashTimes(h, res.Time, res.PerRank, res.Events)
			fmt.Fprintf(h, "%+v\n", res.Stats)
			return cellOut{simUS: res.Time, events: res.Events, retries: res.Stats.Retries}
		},
	})
	return in
}

// plan derives one run's fault schedule from its seed: per-rank crash
// draws (rank 0 never crashes: it anchors the survivor group and stays the
// broadcast root), at most one 2x stall window, and a lossy reliable wire.
func stormPlan(ranks int, rate float64, seed uint64) srmcoll.FaultPlan {
	rg := rng{s: seed ^ 0x9e3779b97f4a7c15}
	window := float64(stormRounds) * (stormCompute + 20) * 2
	plan := srmcoll.FaultPlan{Seed: seed, Deadline: stormDeadline, Drop: stormDrop, Reliable: true}
	for r := 1; r < ranks; r++ {
		pCrash, at := rg.float(), rg.float()
		if pCrash < rate {
			plan.Crashes = append(plan.Crashes, srmcoll.Crash{Rank: r, At: at * window})
		}
	}
	pStall, stallRank, stallFrom := rg.float(), rg.float(), rg.float()
	if pStall < stormStallP {
		from := stallFrom * window / 2
		plan.Stalls = []srmcoll.Stall{{Rank: int(stallRank * float64(ranks)), From: from, Until: from + window/4, Factor: 2}}
	}
	return plan
}

// body is the survivor protocol. Besides the frozen control flow it
// records, per rank, that a broadcast and an allreduce completed and on
// which membership, so the harness can check the survivors' payloads
// afterwards.
func (f *faultStorm) body(c *srmcoll.Comm) {
	comm, r := c, c.Rank()
	buf, send, recv := f.buf.row(r, stormBytes), f.send.row(r, stormBytes), f.recv.row(r, stormBytes)
	var members []int // nil: the whole world
	done := 0
	for {
		if done < stormRounds {
			var err error
			c.Compute(stormCompute)
			if done%2 == 0 {
				err = comm.Bcast(buf, comm.Members()[0])
				f.sawBuf[r] = err == nil
			} else {
				err = comm.Allreduce(send, recv, srmcoll.Float64, srmcoll.Sum)
				f.sawRecv[r], f.members[r] = err == nil, members
			}
			if err == nil {
				done++
				continue
			}
			var rfe *srmcoll.RankFailedError
			if !errors.As(err, &rfe) {
				panic(fmt.Sprintf("rank %d round %d: unexpected error %v", r, done, err))
			}
		}
		nc, err := comm.Shrink()
		if err != nil {
			panic(err)
		}
		var mask uint64
		for i := 0; i < done; i++ {
			mask |= 1 << i
		}
		agreed, err := nc.Agree(mask)
		if err != nil {
			panic(err)
		}
		comm, members = nc, nc.Members()
		done = 0
		for agreed&1 == 1 {
			done++
			agreed >>= 1
		}
		if done >= stormRounds {
			f.alive[r] = true
			return
		}
	}
}

func (f *faultStorm) cell(ranks int, rate float64, seed uint64) cell {
	cl := mustCluster(srmcoll.ColonySP(ranks/stormTPN, stormTPN))
	cl.SetFaultPlan(stormPlan(ranks, rate, seed))
	cl.SetFaultTolerance(srmcoll.DefaultFTConfig())
	run := func(h hash.Hash) cellOut {
		for r := 0; r < ranks; r++ {
			poison(f.buf.row(r, stormBytes))
			poison(f.recv.row(r, stormBytes))
			f.sawBuf[r], f.sawRecv[r], f.alive[r], f.members[r] = false, false, false, nil
		}
		copy(f.buf.row(0, stormBytes), f.payload)
		res, err := cl.Run(srmcoll.SRM, f.body)
		if err != nil {
			// A stall, a deadlock, the deadline or an unexpected error:
			// the survivor protocol must always finish.
			return cellOut{fail: errString(err)}
		}
		hashResult(h, res)
		out := cellOut{simUS: res.Time, events: res.Events, retries: res.Stats.Retries}
		if why := f.verify(ranks, h); why != "" {
			out.fail = why
			return out
		}
		if len(res.Failures) > 0 && len(res.Repairs) > 0 {
			first, last := res.Failures[0].CrashedAt, 0.0
			for _, fl := range res.Failures {
				first = min(first, fl.CrashedAt)
			}
			for _, rep := range res.Repairs {
				last = max(last, rep.CompletedAt)
			}
			f.recovery += last - first
			f.withFailure++
		}
		return out
	}
	return cell{name: fmt.Sprintf("srmcoll.Run:chaos/%d/%.2f/%016x", ranks, rate, seed), run: run}
}

// verify checks every survivor: its last broadcast left rank 0's payload,
// its last allreduce left the sum over the communicator it ran on.
func (f *faultStorm) verify(ranks int, h hash.Hash) string {
	var want []byte
	var wantFor []int
	wantValid := false
	for r := 0; r < ranks; r++ {
		if !f.alive[r] {
			// Killed mid-run, possibly inside a collective that had begun
			// to overwrite its buffers.
			continue
		}
		if f.sawBuf[r] && !matches(f.buf.row(r, stormBytes), f.payload, true) {
			return fmt.Sprintf("rank %d: broadcast output differs from rank 0's payload", r)
		}
		if !f.sawRecv[r] {
			continue
		}
		if !wantValid || !slices.Equal(wantFor, f.members[r]) {
			want, wantFor, wantValid = f.sumOver(ranks, f.members[r]), f.members[r], true
			h.Write(want)
		}
		if !matches(f.recv.row(r, stormBytes), want, true) {
			return fmt.Sprintf("rank %d: allreduce output differs from the sum over its %d members", r, len(f.members[r]))
		}
	}
	return ""
}

// sumOver is the sequential reference for an allreduce over members (nil:
// all of the first `ranks` ranks).
func (f *faultStorm) sumOver(ranks int, members []int) []byte {
	out := make([]byte, stormBytes)
	acc := f64s(out)
	add := func(r int) {
		for i, v := range f64s(f.send.row(r, stormBytes)) {
			acc[i] += v
		}
	}
	if members == nil {
		for r := 0; r < ranks; r++ {
			add(r)
		}
	} else {
		for _, r := range members {
			add(r)
		}
	}
	return out
}

// extras reports the mean first-crash -> last-repair latency over the
// runs of this repetition that declared a failure.
func (f *faultStorm) extras() map[string]float64 {
	if f.withFailure == 0 {
		return map[string]float64{"recovery_us": 0}
	}
	return map[string]float64{"recovery_us": f.recovery / float64(f.withFailure)}
}
