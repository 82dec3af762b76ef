package main

import (
	"fmt"
	"hash"

	"srmcoll"
)

// rank_ladder: the what-if-at-scale user — 65,536 ranks with 64-byte
// payloads on the Task engine. One verified ScaleAllreduce (the
// internal/scale core) and one RunT doing bcast -> allreduce -> barrier
// (internal/core's *_task.go): the same collectives fig_grid runs on
// goroutines, through the other engine.

const ladderBytes = 64

func buildRankLadder(seed uint64, smoke bool) *instance {
	rg := newRNG(seed, "rank_ladder")
	nodes, tpn := 8192, 8
	if smoke {
		nodes = 32
	}
	cl := mustCluster(srmcoll.ColonySP(nodes, tpn))
	cl.SetEngine(srmcoll.EngineTasks)
	ranks := cl.Config().P()

	send, bufs, recv := newArena(ranks, ladderBytes), newArena(ranks, ladderBytes), newArena(ranks, ladderBytes)
	rg.fillInts(send.buf)
	sum := sumRows(send, ranks, ladderBytes)
	root := rg.intn(ranks)
	payload := make([]byte, ladderBytes)
	rg.fillInts(payload)
	errs := make([]error, ranks)
	wantHash := hashBytes(payload) ^ hashBytes(sum)

	scaleCell := cell{
		name: fmt.Sprintf("srmcoll.ScaleAllreduce:tasks/%d/%d", ranks, ladderBytes),
		run: func(h hash.Hash) cellOut {
			// The scale core generates and verifies its own payloads
			// (Verify compares every rank with the exact sum).
			res, err := cl.ScaleAllreduce(srmcoll.ScaleOptions{Bytes: ladderBytes, Reps: 1, Engine: srmcoll.ScaleTasks, Verify: true})
			if err != nil {
				return cellOut{fail: errString(err)}
			}
			hashTimes(h, res.Time, res.PerRank, res.Events)
			fmt.Fprintf(h, "%+v %d\n", res.Stats, res.ProtoBytes)
			return cellOut{simUS: res.Time, events: res.Events, retries: res.Stats.Retries}
		},
	}

	// The broadcast root enters a few seeded microseconds late (the paper's
	// §4 late-arrival case): a binomial broadcast over a flat switch takes
	// the same time from any root, so without the delay the seed would not
	// reach this workload's virtual time.
	lateBy := 1 + 4*rg.float()
	body := func(tc *srmcoll.TComm, done func()) {
		r := tc.Rank()
		collectives := func() {
			tc.Bcast(bufs.row(r, ladderBytes), root, func(err error) {
				if err != nil {
					errs[r] = err
					done()
					return
				}
				tc.Allreduce(send.row(r, ladderBytes), recv.row(r, ladderBytes), srmcoll.Float64, srmcoll.Sum, func(err error) {
					if err != nil {
						errs[r] = err
						done()
						return
					}
					tc.Barrier(func(err error) {
						errs[r] = err
						done()
					})
				})
			})
		}
		if r == root {
			tc.Compute(lateBy, collectives)
		} else {
			collectives()
		}
	}
	runtCell := cell{
		name: fmt.Sprintf("srmcoll.RunT:srm/bcast+allreduce+barrier/%d/%d", ranks, ladderBytes),
		run: func(h hash.Hash) cellOut {
			for r := 0; r < ranks; r++ {
				poison(bufs.row(r, ladderBytes))
				poison(recv.row(r, ladderBytes))
			}
			copy(bufs.row(root, ladderBytes), payload)
			res, err := cl.RunT(srmcoll.SRM, body)
			if err != nil {
				return cellOut{fail: errString(err)}
			}
			hashResult(h, res)
			out := cellOut{simUS: res.Time, events: res.Events, retries: res.Stats.Retries}
			for r := 0; r < ranks; r++ {
				switch {
				case errs[r] != nil:
					out.fail = fmt.Sprintf("rank %d: %v", r, errs[r])
				case !matches(bufs.row(r, ladderBytes), payload, true):
					out.fail = fmt.Sprintf("rank %d: broadcast output differs from the root's payload", r)
				case !matches(recv.row(r, ladderBytes), sum, true):
					out.fail = fmt.Sprintf("rank %d: allreduce output differs from the sequential sum", r)
				default:
					continue
				}
				return out
			}
			hashPayload(h, wantHash)
			return out
		},
	}
	return &instance{cells: []cell{scaleCell, runtCell}, inputs: send}
}
