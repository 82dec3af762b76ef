package srmcoll

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"srmcoll/internal/check"
	"srmcoll/internal/sim"
)

// runTBlocking runs a RunT body on a Run body's coroutine, as the reference
// side of the equivalence matrix: every TComm method blocks there and returns
// once its continuation has run, and done has nothing left to do.
func runTBlocking(cl *Cluster, impl Impl, body func(tc *TComm, done func())) (*Result, error) {
	return cl.Run(impl, func(c *Comm) { body((*TComm)(c), func() {}) })
}

// runBothEngines executes the scenario on a blocking actor (runTBlocking) and
// as RunT's plain tasks, asserting the results bit-identical (sameResult) and
// whatever buffer checks the scenario's verifier performs per run.
func runBothEngines(t *testing.T, cl *Cluster, impl Impl,
	mk func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string))) (*Result, *Result) {
	t.Helper()
	P := cl.Config().P()

	bodyP, checkP := mk(P)
	rp, err := runTBlocking(cl, impl, bodyP)
	if err != nil {
		t.Fatalf("procs: %v", err)
	}
	checkP(t, "procs")

	bodyT, checkT := mk(P)
	rt, err := cl.RunT(impl, bodyT)
	if err != nil {
		t.Fatalf("tasks: %v", err)
	}
	checkT(t, "tasks")

	sameResult(t, rp, rt)
	return rp, rt
}

// bodyForms are the two ways the tests run a RunT body: blocking on a Run
// body's coroutine, and as RunT's plain tasks.
var bodyForms = []struct {
	name string
	run  func(*Cluster, Impl, func(*TComm, func())) (*Result, error)
}{{"procs", runTBlocking}, {"tasks", (*Cluster).RunT}}

// sameResult asserts that a run on an actor with a stack (rp) and one without
// (rt) cannot be told apart by their results: one event digest (and with it
// one Time, PerRank and Events), one Stats, one Faults.
func sameResult(t *testing.T, rp, rt *Result) {
	t.Helper()
	if rp.Digest != rt.Digest || rp.Stats != rt.Stats || rp.Faults != rt.Faults {
		t.Errorf("procs: digest %016x, %+v, %+v\ntasks: digest %016x, %+v, %+v",
			rp.Digest, rp.Stats, rp.Faults, rt.Digest, rt.Stats, rt.Faults)
	}
}

// TestTaskEngineRejects: RunT refuses an implementation that does not exist,
// and a baseline with fault tolerance on, each with an error that names it,
// before any rank runs.
func TestTaskEngineRejects(t *testing.T) {
	plain, ft := mustCluster(t, 2, 2), mustCluster(t, 2, 2)
	ft.SetFaultTolerance(DefaultFTConfig())
	for _, c := range []struct {
		cl   *Cluster
		impl Impl
		want []string
	}{
		{plain, Impl(7), []string{"unknown implementation", "7"}},
		{ft, IBMMPI, []string{"fault tolerance", "ibm-mpi"}},
		{ft, MPICHMPI, []string{"fault tolerance", "mpich"}},
	} {
		ran := false
		_, err := c.cl.RunT(c.impl, func(tc *TComm, done func()) { ran = true; done() })
		if err == nil {
			t.Errorf("RunT(%s) ran", c.impl)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("RunT(%s): error %q does not name %q", c.impl, err, w)
			}
		}
		if ran {
			t.Errorf("RunT(%s): a rank ran before the refusal", c.impl)
		}
	}
}

// fillPattern writes a deterministic per-rank byte pattern.
func fillPattern(buf []byte, rank int) {
	for i := range buf {
		buf[i] = byte(31*rank + i)
	}
}

// engCollectiveScenarios is the collective x size matrix every engine must
// agree on: each entry exercises a distinct protocol path (small/pipelined
// bcast, recursive-doubling vs pipelined-tree allreduce, staged vs direct
// allgather/alltoall, ...).
func engCollectiveScenarios() map[string]func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
	mkBcast := func(n, root int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			want := make([]byte, n)
			fillPattern(want, root)
			bufs := make([][]byte, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				bufs[r] = make([]byte, n)
				if r == root {
					copy(bufs[r], want)
				}
				tc.Bcast(bufs[r], root, func(err error) {
					if err != nil {
						panic(err)
					}
					done()
				})
			}
			check := func(t *testing.T, eng string) {
				for r := range bufs {
					if !bytes.Equal(bufs[r], want) {
						t.Errorf("%s: bcast rank %d corrupted", eng, r)
					}
				}
			}
			return body, check
		}
	}
	mkAllreduce := func(elems int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			outs := make([][]int64, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]int64, elems)
				for i := range send {
					send[i] = int64(31*r + i)
				}
				recv := make([]byte, 8*elems)
				tc.Allreduce(Int64Bytes(send), recv, Int64, Sum, func(err error) {
					if err != nil {
						panic(err)
					}
					outs[r] = Int64s(recv)
					done()
				})
			}
			check := func(t *testing.T, eng string) {
				for r, out := range outs {
					for i, v := range out {
						want := int64(0)
						for q := 0; q < P; q++ {
							want += int64(31*q + i)
						}
						if v != want {
							t.Errorf("%s: allreduce rank %d elem %d = %d, want %d", eng, r, i, v, want)
							break
						}
					}
				}
			}
			return body, check
		}
	}
	mkReduce := func(elems, root int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			var out []int64
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]int64, elems)
				for i := range send {
					send[i] = int64(r + i)
				}
				var recv []byte
				if r == root {
					recv = make([]byte, 8*elems)
				}
				tc.Reduce(Int64Bytes(send), recv, Int64, Sum, root, func(err error) {
					if err != nil {
						panic(err)
					}
					if r == root {
						out = Int64s(recv)
					}
					done()
				})
			}
			check := func(t *testing.T, eng string) {
				for i, v := range out {
					want := int64(0)
					for q := 0; q < P; q++ {
						want += int64(q + i)
					}
					if v != want {
						t.Errorf("%s: reduce elem %d = %d, want %d", eng, i, v, want)
						break
					}
				}
			}
			return body, check
		}
	}
	mkGatherFamily := func(blk int, direct bool) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			gathered := make([]byte, 0)
			scattered := make([][]byte, P)
			allg := make([][]byte, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]byte, blk)
				fillPattern(send, r)
				var recv []byte
				if r == 2 {
					recv = make([]byte, blk*P)
				}
				tc.Gather(send, recv, 2, func(err error) {
					if err != nil {
						panic(err)
					}
					if r == 2 {
						gathered = append([]byte(nil), recv...)
					}
					sr := make([]byte, blk)
					tc.Scatter(recv, sr, 2, func(err error) {
						if err != nil {
							panic(err)
						}
						scattered[r] = sr
						ag := make([]byte, blk*P)
						tc.Allgather(send, ag, func(err error) {
							if err != nil {
								panic(err)
							}
							allg[r] = ag
							done()
						})
					})
				})
			}
			check := func(t *testing.T, eng string) {
				want := make([]byte, blk*P)
				for q := 0; q < P; q++ {
					fillPattern(want[q*blk:(q+1)*blk], q)
				}
				if !bytes.Equal(gathered, want) {
					t.Errorf("%s: gather (blk=%d direct=%v) wrong", eng, blk, direct)
				}
				for r := range scattered {
					if !bytes.Equal(scattered[r], want[r*blk:(r+1)*blk]) {
						t.Errorf("%s: scatter rank %d wrong", eng, r)
					}
					if !bytes.Equal(allg[r], want) {
						t.Errorf("%s: allgather rank %d wrong", eng, r)
					}
				}
			}
			return body, check
		}
	}
	mkAlltoall := func(blk int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			outs := make([][]byte, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]byte, blk*P)
				for q := 0; q < P; q++ {
					for i := 0; i < blk; i++ {
						send[q*blk+i] = byte(r ^ q ^ i)
					}
				}
				recv := make([]byte, blk*P)
				tc.Alltoall(send, recv, func(err error) {
					if err != nil {
						panic(err)
					}
					outs[r] = recv
					done()
				})
			}
			check := func(t *testing.T, eng string) {
				for r, out := range outs {
					for q := 0; q < P; q++ {
						for i := 0; i < blk; i++ {
							if out[q*blk+i] != byte(q^r^i) {
								t.Errorf("%s: alltoall rank %d block %d wrong", eng, r, q)
								i = blk
								q = P
							}
						}
					}
				}
			}
			return body, check
		}
	}
	mkScanFamily := func(elems int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		return func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
			scans := make([][]int64, P)
			exscans := make([][]int64, P)
			rscatter := make([][]int64, P)
			body := func(tc *TComm, done func()) {
				r := tc.Rank()
				send := make([]int64, elems)
				for i := range send {
					send[i] = int64(r + 2*i)
				}
				recv := make([]byte, 8*elems)
				tc.Scan(Int64Bytes(send), recv, Int64, Sum, func(err error) {
					if err != nil {
						panic(err)
					}
					scans[r] = Int64s(append([]byte(nil), recv...))
					tc.Exscan(Int64Bytes(send), recv, Int64, Sum, func(err error) {
						if err != nil {
							panic(err)
						}
						exscans[r] = Int64s(append([]byte(nil), recv...))
						rsSend := make([]int64, elems*P)
						for i := range rsSend {
							rsSend[i] = int64(r + i)
						}
						tc.ReduceScatter(Int64Bytes(rsSend), recv, Int64, Sum, func(err error) {
							if err != nil {
								panic(err)
							}
							rscatter[r] = Int64s(recv)
							done()
						})
					})
				})
			}
			check := func(t *testing.T, eng string) {
				for r := range scans {
					for i := 0; i < elems; i++ {
						var inc, exc int64
						for q := 0; q <= r; q++ {
							inc += int64(q + 2*i)
						}
						for q := 0; q < r; q++ {
							exc += int64(q + 2*i)
						}
						if scans[r][i] != inc {
							t.Errorf("%s: scan rank %d elem %d = %d, want %d", eng, r, i, scans[r][i], inc)
						}
						if exscans[r][i] != exc {
							t.Errorf("%s: exscan rank %d elem %d = %d, want %d", eng, r, i, exscans[r][i], exc)
						}
						var rs int64
						for q := 0; q < P; q++ {
							rs += int64(q + r*elems + i)
						}
						if rscatter[r][i] != rs {
							t.Errorf("%s: reducescatter rank %d elem %d = %d, want %d", eng, r, i, rscatter[r][i], rs)
						}
					}
				}
			}
			return body, check
		}
	}
	mkBarrier := func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		entered := make([]float64, P)
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			tc.Compute(float64(10*r), func() {
				entered[r] = tc.Now()
				tc.Barrier(func(err error) {
					if err != nil {
						panic(err)
					}
					done()
				})
			})
		}
		// Exit times are staggered by the SMP release fan-out; the PerRank
		// comparison in runBothEngines asserts their cross-engine identity.
		check := func(t *testing.T, eng string) {
			for r := 0; r < P; r++ {
				if entered[r] != float64(10*r) {
					t.Errorf("%s: rank %d entered at %v, want %v", eng, r, entered[r], float64(10*r))
				}
			}
		}
		return body, check
	}
	mkSub := func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		members := []int{0, 2, 4, 6}
		want := make([]byte, 900)
		fillPattern(want, 4)
		bufs := make([][]byte, P)
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			if r%2 != 0 || r > 6 {
				done()
				return
			}
			sub := tc.Sub(members)
			if sub.Size() != len(members) {
				panic(fmt.Sprintf("sub size %d", sub.Size()))
			}
			bufs[r] = make([]byte, len(want))
			if r == 4 {
				copy(bufs[r], want)
			}
			sub.Bcast(bufs[r], 4, func(err error) {
				if err != nil {
					panic(err)
				}
				sum := make([]byte, 8)
				sub.Allreduce(Int64Bytes([]int64{int64(r)}), sum, Int64, Sum, func(err error) {
					if err != nil {
						panic(err)
					}
					if got := Int64s(sum)[0]; got != 0+2+4+6 {
						panic(fmt.Sprintf("sub allreduce = %d", got))
					}
					done()
				})
			})
		}
		check := func(t *testing.T, eng string) {
			for _, r := range members {
				if !bytes.Equal(bufs[r], want) {
					t.Errorf("%s: sub bcast rank %d corrupted", eng, r)
				}
			}
		}
		return body, check
	}

	return map[string]func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)){
		"barrier":          mkBarrier,
		"bcast-small":      mkBcast(512, 1),
		"bcast-pipelined":  mkBcast(100<<10, 0),
		"bcast-2buf-12k":   mkBcast(12<<10, 0), // 8-64 KiB: 4 KiB chunks through the two shared buffers
		"bcast-2buf-16k":   mkBcast(16<<10, 2),
		"bcast-2buf-64k":   mkBcast(64<<10, 1),
		"reduce":           mkReduce(3000, 3),
		"reduce-pipelined": mkReduce(25000, 1), // four SRMLargeChunk chunks; rank 1 is second on its node unless nodes hold one task
		"allreduce-small":  mkAllreduce(128),
		"allreduce-large":  mkAllreduce(8192), // 64 KiB: pipelined-tree path with arbiter helpers
		"gather-staged":    mkGatherFamily(256, false),
		"gather-direct":    mkGatherFamily(20<<10, true),
		"alltoall-staged":  mkAlltoall(96),
		"alltoall-direct":  mkAlltoall(4096),
		"scan-family":      mkScanFamily(200),
		"sub-communicator": mkSub,
	}
}

// TestTaskEngineCollectivesBitIdentical runs the scenario matrix under SRM and
// both MPI baselines, from a blocking actor and from RunT's plain tasks, on a
// power-of-two and two odd shapes.
func TestTaskEngineCollectivesBitIdentical(t *testing.T) {
	for _, impl := range []Impl{SRM, IBMMPI, MPICHMPI} {
		for _, shape := range [][2]int{{2, 4}, {3, 4}, {5, 3}} {
			for name, mk := range engCollectiveScenarios() {
				if shape != [2]int{2, 4} {
					name = fmt.Sprintf("%dx%d/%s", shape[0], shape[1], name)
				}
				if impl != SRM {
					name = impl.String() + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					cl := mustCluster(t, shape[0], shape[1])
					runBothEngines(t, cl, impl, mk)
				})
			}
		}
	}
}

// TestTaskEngineSMPBcastVariants runs every scenario that distributes data
// inside a node through the two SMP broadcast variants the ablations keep
// (the tree of §2.2 and the barrier-arbitrated buffers of §4).
func TestTaskEngineSMPBcastVariants(t *testing.T) {
	variants := map[string]Variant{"tree": {TreeSMPBcst: true}, "barrier": {BarrierSMPBcst: true}}
	for vname, v := range variants {
		for name, mk := range engCollectiveScenarios() {
			if !strings.HasPrefix(name, "bcast") && !strings.HasPrefix(name, "allreduce") && name != "sub-communicator" {
				continue
			}
			t.Run(vname+"/"+name, func(t *testing.T) {
				cl := mustCluster(t, 3, 4)
				cl.SetVariant(v)
				runBothEngines(t, cl, SRM, mk)
			})
		}
	}
}

// TestZeroByteCollectives runs every collective with empty buffers: control
// flow (flags, counters, credits) must still complete on either engine, on
// power-of-two, odd and single-task-per-node shapes. A zero-byte Scatter
// used to hang on two or more nodes: the root skipped its empty slabs while
// the other masters waited for them.
func TestZeroByteCollectives(t *testing.T) {
	ops := map[string]func(tc *TComm, k func(error)){
		"barrier":       func(tc *TComm, k func(error)) { tc.Barrier(k) },
		"bcast":         func(tc *TComm, k func(error)) { tc.Bcast(nil, 1, k) },
		"reduce":        func(tc *TComm, k func(error)) { tc.Reduce(nil, nil, Float64, Sum, 1, k) },
		"allreduce":     func(tc *TComm, k func(error)) { tc.Allreduce(nil, nil, Float64, Sum, k) },
		"gather":        func(tc *TComm, k func(error)) { tc.Gather(nil, nil, 1, k) },
		"scatter":       func(tc *TComm, k func(error)) { tc.Scatter(nil, nil, 1, k) },
		"allgather":     func(tc *TComm, k func(error)) { tc.Allgather(nil, nil, k) },
		"alltoall":      func(tc *TComm, k func(error)) { tc.Alltoall(nil, nil, k) },
		"reducescatter": func(tc *TComm, k func(error)) { tc.ReduceScatter(nil, nil, Int32, Max, k) },
		"scan":          func(tc *TComm, k func(error)) { tc.Scan(nil, nil, Int64, Sum, k) },
		"exscan":        func(tc *TComm, k func(error)) { tc.Exscan(nil, nil, Int64, Sum, k) },
	}
	for _, shape := range [][2]int{{2, 4}, {3, 4}, {4, 16}, {5, 3}, {6, 1}, {7, 2}} {
		for name, op := range ops {
			t.Run(fmt.Sprintf("%dx%d/%s", shape[0], shape[1], name), func(t *testing.T) {
				cl := mustCluster(t, shape[0], shape[1])
				runBothEngines(t, cl, SRM, func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
					errs := make([]error, P)
					body := func(tc *TComm, done func()) {
						op(tc, func(err error) {
							errs[tc.Rank()] = err
							done()
						})
					}
					return body, func(t *testing.T, eng string) {
						for r, err := range errs {
							if err != nil {
								t.Errorf("%s: rank %d: %v", eng, r, err)
							}
						}
					}
				})
			})
		}
	}
}

// TestTaskEngineNonBlocking covers the request stream: issue/Compute/Wait
// overlap, Test polling, and issue-order completion across two requests.
func TestTaskEngineNonBlocking(t *testing.T) {
	cl := mustCluster(t, 2, 4)
	runBothEngines(t, cl, SRM, func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		outs := make([][]int64, P)
		bufs := make([][]byte, P)
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			send := []int64{int64(r), 7}
			recv := make([]byte, 16)
			tc.IAllreduce(Int64Bytes(send), recv, Int64, Sum, func(rq *TRequest) {
				tc.Compute(40, func() {
					rq.Wait(func(err error) {
						if err != nil {
							panic(err)
						}
						outs[r] = Int64s(append([]byte(nil), recv...))
						bufs[r] = make([]byte, 2048)
						if r == 0 {
							fillPattern(bufs[r], 0)
						}
						tc.IBcast(bufs[r], 0, func(rq2 *TRequest) {
							var poll func(ok bool)
							poll = func(ok bool) {
								if !ok {
									tc.Compute(5, func() { rq2.Test(poll) })
									return
								}
								done()
							}
							rq2.Test(poll)
						})
					})
				})
			})
		}
		check := func(t *testing.T, eng string) {
			var sum int64
			for q := 0; q < P; q++ {
				sum += int64(q)
			}
			want := make([]byte, 2048)
			fillPattern(want, 0)
			for r := 0; r < P; r++ {
				if outs[r][0] != sum || outs[r][1] != int64(7*P) {
					t.Errorf("%s: iallreduce rank %d = %v", eng, r, outs[r])
				}
				if !bytes.Equal(bufs[r], want) {
					t.Errorf("%s: ibcast rank %d corrupted", eng, r)
				}
			}
		}
		return body, check
	})
}

// TestTaskEngineBackpressure issues past MaxOutstanding so the admission
// loop has to park the issuing rank on both engines.
func TestTaskEngineBackpressure(t *testing.T) {
	cl := mustCluster(t, 1, 4)
	n := MaxOutstanding + 6
	runBothEngines(t, cl, SRM, func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		body := func(tc *TComm, done func()) {
			reqs := make([]*TRequest, 0, n)
			var issue func(i int)
			issue = func(i int) {
				if i == n {
					var wait func(j int)
					wait = func(j int) {
						if j == n {
							done()
							return
						}
						reqs[j].Wait(func(err error) {
							if err != nil {
								panic(err)
							}
							wait(j + 1)
						})
					}
					wait(0)
					return
				}
				tc.IBarrier(func(rq *TRequest) {
					reqs = append(reqs, rq)
					issue(i + 1)
				})
			}
			issue(0)
		}
		return body, func(t *testing.T, eng string) {}
	})
}

// TestTaskEngineWireFaults runs drop/dup/delay faults under reliable
// delivery: the retransmit machinery is engine-free, so the runs stay
// bit-identical fault for fault.
func TestTaskEngineWireFaults(t *testing.T) {
	cl := mustCluster(t, 2, 4)
	// The probabilities are high because the scenario's wire traffic is a
	// handful of puts: the retransmit-timer floor keeps clean attempts from
	// spuriously multiplying, so every injected fault must come from a
	// first-attempt draw.
	plan := FaultPlan{
		Seed: 11, Drop: 0.3, Dup: 0.25, Delay: 0.5, DelayMax: 4,
		Reliable: true, AckTimeout: 50, Deadline: 5e6,
	}
	cl.SetFaultPlan(plan)
	rp, _ := runBothEngines(t, cl, SRM, engCollectiveScenarios()["bcast-pipelined"])
	if rp.Faults == (FaultSummary{}) {
		t.Fatal("fault plan injected nothing; scenario too small to exercise the wire")
	}
	// The same wire with the root's node master and a leaf stalled through
	// the broadcast: the stretch is the task's, whichever form the body has.
	plan.Stalls = []Stall{{Rank: 0, From: 0, Until: 400, Factor: 3}, {Rank: 6, From: 20, Until: 1e4, Factor: 2.5}}
	cl.SetFaultPlan(plan)
	rs, _ := runBothEngines(t, cl, SRM, engCollectiveScenarios()["bcast-pipelined"])
	if rs.Faults.Stalls != 2 || rs.Time <= rp.Time {
		t.Fatalf("stalled run: %d stall windows opened, time %v (unstalled %v)", rs.Faults.Stalls, rs.Time, rp.Time)
	}
}

// TestTaskEngineTraced compares the full span timelines: same spans, same
// classes, same virtual times, same track assignments.
func TestTaskEngineTraced(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	cl.SetTracing(true)
	defer cl.SetTracing(false)
	rp, rt := runBothEngines(t, cl, SRM, func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			buf := make([]byte, 4096)
			if r == 0 {
				fillPattern(buf, 0)
			}
			tc.Bcast(buf, 0, func(err error) {
				if err != nil {
					panic(err)
				}
				recv := make([]byte, 8)
				tc.IAllreduce(Int64Bytes([]int64{int64(r)}), recv, Int64, Sum, func(rq *TRequest) {
					tc.Compute(25, func() {
						rq.Wait(func(err error) {
							if err != nil {
								panic(err)
							}
							done()
						})
					})
				})
			})
		}
		return body, func(t *testing.T, eng string) {}
	})
	sameSpans(t, rp, rt)
}

// sameSpans asserts that two traced runs recorded one timeline.
func sameSpans(t *testing.T, rp, rt *Result) {
	t.Helper()
	sp, st := rp.Trace.Spans(), rt.Trace.Spans()
	if len(sp) != len(st) {
		t.Fatalf("span counts diverge: procs %d, tasks %d", len(sp), len(st))
	}
	for i := range sp {
		if !reflect.DeepEqual(sp[i], st[i]) {
			t.Fatalf("span %d diverges:\nprocs %+v\ntasks %+v", i, sp[i], st[i])
		}
	}
}

// TestTaskEngineCrashFT runs the full fault-tolerance path on both
// engines: an injected crash, the declaration interrupting a blocked
// collective into *RankFailedError, then Shrink + Agree + a collective on
// the repaired communicator. Failure and repair records, per-rank errors,
// and survivor results must agree across engines.
func TestTaskEngineCrashFT(t *testing.T) {
	mk := func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string, res *Result)) {
		errs := make([]error, P)
		agreed := make([]uint64, P)
		final := make([]int64, P)
		body := func(tc *TComm, done func()) {
			r := tc.Rank()
			send := Int64Bytes([]int64{int64(r)})
			recv := make([]byte, 8)
			var loop func(i int)
			loop = func(i int) {
				tc.Allreduce(send, recv, Int64, Sum, func(err error) {
					if err == nil {
						if i > 400 {
							panic("no failure observed")
						}
						tc.Compute(10, func() { loop(i + 1) })
						return
					}
					errs[r] = err
					tc.Shrink(func(sc *TComm, err error) {
						if err != nil {
							panic(err)
						}
						sc.Agree(^(uint64(1) << uint(r)), func(v uint64, err error) {
							if err != nil {
								panic(err)
							}
							agreed[r] = v
							sc.Allreduce(send, recv, Int64, Sum, func(err error) {
								if err != nil {
									panic(err)
								}
								final[r] = Int64s(recv)[0]
								done()
							})
						})
					})
				})
			}
			loop(0)
		}
		check := func(t *testing.T, eng string, res *Result) {
			if len(res.Failures) != 1 || res.Failures[0].Rank != 2 {
				t.Fatalf("%s: failures = %+v", eng, res.Failures)
			}
			if len(res.Repairs) != 2 {
				t.Fatalf("%s: repairs = %+v", eng, res.Repairs)
			}
			var survivorSum int64
			for q := 0; q < P; q++ {
				if q != 2 {
					survivorSum += int64(q)
				}
			}
			for r := 0; r < P; r++ {
				if r == 2 {
					if errs[r] != nil {
						t.Errorf("%s: crashed rank recorded an error", eng)
					}
					continue
				}
				var rf *RankFailedError
				if !errors.As(errs[r], &rf) {
					t.Fatalf("%s: rank %d error %v, want RankFailedError", eng, r, errs[r])
				}
				if len(rf.Failed) != 1 || rf.Failed[0] != 2 {
					t.Errorf("%s: rank %d Failed = %v", eng, r, rf.Failed)
				}
				// Each survivor contributed ^(1<<rank): the AND clears
				// exactly the survivor bits, so bit 2 (the crashed rank,
				// absent from the rendezvous) must survive.
				var survMask uint64
				for q := 0; q < P; q++ {
					if q != 2 {
						survMask |= uint64(1) << uint(q)
					}
				}
				if agreed[r] != ^survMask {
					t.Errorf("%s: rank %d agree = %#x, want %#x", eng, r, agreed[r], ^survMask)
				}
				if final[r] != survivorSum {
					t.Errorf("%s: rank %d post-shrink allreduce = %d, want %d", eng, r, final[r], survivorSum)
				}
			}
		}
		return body, check
	}

	var res [2]*Result
	for i, form := range bodyForms {
		cl := mustCluster(t, 2, 4)
		cl.SetFaultTolerance(DefaultFTConfig())
		cl.SetFaultPlan(FaultPlan{Crashes: []Crash{{Rank: 2, At: 40}}})
		body, check := mk(cl.Config().P())
		r, err := form.run(cl, SRM, body)
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		check(t, form.name, r)
		res[i] = r
	}
	if a, b := pinOf(res[0]), pinOf(res[1]); a != b {
		t.Errorf("results diverge: procs %s, tasks %s", a, b)
	}
}

// TestTaskEngineRequestCrashFT crashes a rank while a non-blocking request
// is in flight: the request's helper observes the declaration and Wait
// returns the *RankFailedError from both forms of body.
func TestTaskEngineRequestCrashFT(t *testing.T) {
	for _, form := range bodyForms {
		form := form
		t.Run(form.name, func(t *testing.T) {
			cl := mustCluster(t, 2, 2)
			cl.SetFaultTolerance(DefaultFTConfig())
			cl.SetFaultPlan(FaultPlan{Crashes: []Crash{{Rank: 1, At: 20}}})
			P := cl.Config().P()
			errs := make([]error, P)
			res, err := form.run(cl, SRM, func(tc *TComm, done func()) {
				r := tc.Rank()
				recv := make([]byte, 8)
				var loop func(i int)
				loop = func(i int) {
					tc.IAllreduce(Int64Bytes([]int64{1}), recv, Int64, Sum, func(rq *TRequest) {
						tc.Compute(15, func() {
							rq.Wait(func(err error) {
								if err != nil {
									errs[r] = err
									done()
									return
								}
								if i > 400 {
									panic("no failure observed")
								}
								loop(i + 1)
							})
						})
					})
				}
				loop(0)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failures) != 1 || res.Failures[0].Rank != 1 {
				t.Fatalf("failures = %+v", res.Failures)
			}
			for r := 0; r < P; r++ {
				if r == 1 {
					continue
				}
				var rf *RankFailedError
				if !errors.As(errs[r], &rf) {
					t.Fatalf("rank %d: %v, want RankFailedError", r, errs[r])
				}
				if len(rf.Failed) != 1 || rf.Failed[0] != 1 {
					t.Errorf("rank %d Failed = %v", r, rf.Failed)
				}
			}
		})
	}
}

// TestTaskEngineMisuseDiagnosed: the misuse diagnostics of the request stream
// are one code path, whichever form of body runs into them, so one table holds
// them — each case a continuation body, run with a stack under it and without,
// and diagnosed in the same words naming the same rank and operation. (A second
// blocking collective beside the first takes a body without a stack to start;
// srmcoll_tcall_test.go has it.)
func TestTaskEngineMisuseDiagnosed(t *testing.T) {
	for _, mc := range []struct {
		name, op string
		rank     int
		cause    any // a pointer to the error type the RunError carries
		want     []string
		body     func(tc *TComm, done func())
	}{
		{"dropped request", "srmcoll.Run", 0, new(*check.RequestError),
			[]string{"request ibcast#0", "1 request(s) dropped"},
			func(tc *TComm, done func()) {
				tc.IBcast(make([]byte, 64), 0, func(*TRequest) { done() })
			}},
		{"double Wait", "srmcoll.Request.Wait", 1, new(*check.RequestError),
			[]string{"request ibarrier#0", "request already completed"},
			func(tc *TComm, done func()) {
				tc.IBarrier(func(rq *TRequest) {
					rq.Wait(func(error) {
						if tc.Rank() == 1 {
							rq.Wait(func(error) {})
							return
						}
						done()
					})
				})
			}},
		{"Wait after Test", "srmcoll.Request.Wait", 1, new(*check.RequestError),
			[]string{"request ibarrier#0", "request already completed"},
			func(tc *TComm, done func()) {
				tc.IBarrier(func(rq *TRequest) {
					var poll func(bool)
					poll = func(ok bool) {
						switch {
						case !ok:
							tc.Compute(5, func() { rq.Test(poll) })
						case tc.Rank() == 1:
							rq.Wait(func(error) {})
						default:
							done()
						}
					}
					rq.Test(poll)
				})
			}},
		{"overlapping buffers", "srmcoll.IAllreduce", 0, new(*check.RequestError),
			[]string{"request ibcast#0", "send buffer overlaps the outstanding request's buf buffer"},
			func(tc *TComm, done func()) {
				buf := make([]byte, 1024)
				tc.IBcast(buf, 0, func(*TRequest) {
					tc.IAllreduce(buf[512:520], make([]byte, 8), Int64, Sum, func(*TRequest) { done() })
				})
			}},
	} {
		var texts [2]string
		for e, form := range bodyForms {
			_, err := form.run(mustCluster(t, 2, 1), SRM, mc.body)
			var re *RunError
			if !errors.As(err, &re) || !errors.As(err, mc.cause) {
				t.Fatalf("%s, %s: %v, want a *RunError carrying a %T", mc.name, form.name, err, mc.cause)
			}
			if re.Rank != mc.rank || re.Op != mc.op {
				t.Errorf("%s, %s: RunError{Rank: %d, Op: %q}, want rank %d in %s", mc.name, form.name, re.Rank, re.Op, mc.rank, mc.op)
			}
			for _, part := range mc.want {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%s, %s: error %q does not mention %q", mc.name, form.name, err, part)
				}
			}
			texts[e] = err.Error()
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: diagnosed differently with a stack and without:\n%s\n%s", mc.name, texts[0], texts[1])
		}
	}
}

// TestTaskEngineMatchesRunBody holds a Run body, whose requests are run by
// helpers without a stack, to the same program as a continuation body on
// RunT's plain tasks: virtual times, counters, events, failure and repair records,
// what every rank observed, and with tracing on the span timeline.
func TestTaskEngineMatchesRunBody(t *testing.T) {
	fail := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// each runs step for i = 0..n-1, each started from the continuation of the
	// last, then k.
	var each func(i, n int, step func(i int, next func()), k func())
	each = func(i, n int, step func(i int, next func()), k func()) {
		if i == n {
			k()
			return
		}
		step(i, func() { each(i+1, n, step, k) })
	}
	type program struct {
		name   string
		mk     func() *Cluster
		body   func(log []string) func(*Comm)
		bodyT  func(log []string) func(*TComm, func())
		expect func(t *testing.T, res *Result, log []string)
	}
	one := func(r int) []byte { return Int64Bytes([]int64{int64(r + 1)}) }
	programs := []program{{
		// More requests than may be outstanding, a blocking collective that
		// has to wait for one, and a Test loop.
		name: "backpressure, quiesce and Test, traced",
		mk: func() *Cluster {
			cl := mustCluster(t, 2, 2)
			cl.SetTracing(true)
			return cl
		},
		body: func(log []string) func(*Comm) {
			return func(c *Comm) {
				r := c.Rank()
				reqs := make([]*Request, MaxOutstanding+6)
				for i := range reqs {
					reqs[i] = c.IBarrier()
				}
				c.Compute(float64(5 * r))
				for _, rq := range reqs {
					fail(rq.Wait())
				}
				recv := make([]byte, 8)
				rq := c.IAllreduce(one(r), recv, Int64, Sum)
				fail(c.Barrier())
				polls := 0
				for !rq.Test() {
					polls++
					c.Compute(3)
				}
				log[r] = fmt.Sprint(Int64s(recv)[0], polls, c.Now())
			}
		},
		bodyT: func(log []string) func(*TComm, func()) {
			return func(tc *TComm, done func()) {
				r := tc.Rank()
				reqs := make([]*TRequest, MaxOutstanding+6)
				each(0, len(reqs), func(i int, next func()) {
					tc.IBarrier(func(rq *TRequest) { reqs[i] = rq; next() })
				}, func() {
					tc.Compute(float64(5*r), func() {
						each(0, len(reqs), func(i int, next func()) {
							reqs[i].Wait(func(err error) { fail(err); next() })
						}, func() {
							recv := make([]byte, 8)
							tc.IAllreduce(one(r), recv, Int64, Sum, func(rq *TRequest) {
								tc.Barrier(func(err error) {
									fail(err)
									polls := 0
									var poll func(bool)
									poll = func(ok bool) {
										if !ok {
											polls++
											tc.Compute(3, func() { rq.Test(poll) })
											return
										}
										log[r] = fmt.Sprint(Int64s(recv)[0], polls, tc.Now())
										done()
									}
									rq.Test(poll)
								})
							})
						})
					})
				})
			}
		},
		expect: func(t *testing.T, res *Result, log []string) {
			for r, l := range log {
				if !strings.HasPrefix(l, "10 ") {
					t.Errorf("rank %d observed %q, want the sum 10 first", r, l)
				}
			}
		},
	}, {
		// A member is declared failed while the survivors are in an allreduce;
		// a request issued on the communicator afterwards is complete, with the
		// failure, when the issue returns it; the shrunken communicator works.
		name: "a request on a communicator known broken",
		mk:   func() *Cluster { return ftCluster(t, 2, 4, Crash{Rank: 3, At: 40}) },
		body: func(log []string) func(*Comm) {
			return func(c *Comm) {
				r := c.Rank()
				recv := make([]byte, 8)
				c.Compute(250)
				err := c.Allreduce(one(r), recv, Int64, Sum)
				rq := c.IAllreduce(one(r), recv, Int64, Sum)
				atIssue := rq.Err()
				atWait := rq.Wait()
				sc, serr := c.Shrink()
				fail(serr)
				fail(sc.Allreduce(one(r), recv, Int64, Sum))
				log[r] = fmt.Sprint(err, "|", atIssue, "|", atWait, "|", sc.Members(), Int64s(recv)[0], c.Now())
			}
		},
		bodyT: func(log []string) func(*TComm, func()) {
			return func(tc *TComm, done func()) {
				r := tc.Rank()
				recv := make([]byte, 8)
				tc.Compute(250, func() {
					tc.Allreduce(one(r), recv, Int64, Sum, func(err error) {
						tc.IAllreduce(one(r), recv, Int64, Sum, func(rq *TRequest) {
							atIssue := rq.Err()
							rq.Wait(func(atWait error) {
								tc.Shrink(func(sc *TComm, serr error) {
									fail(serr)
									sc.Allreduce(one(r), recv, Int64, Sum, func(ferr error) {
										fail(ferr)
										log[r] = fmt.Sprint(err, "|", atIssue, "|", atWait, "|", sc.Members(), Int64s(recv)[0], tc.Now())
										done()
									})
								})
							})
						})
					})
				})
			}
		},
		expect: func(t *testing.T, res *Result, log []string) {
			if len(res.Failures) != 1 || res.Failures[0].Rank != 3 || len(res.Repairs) != 1 {
				t.Fatalf("failures %+v, repairs %+v; want rank 3 declared and one shrink", res.Failures, res.Repairs)
			}
			for r, l := range log {
				if parts := strings.Split(l, "|"); r != 3 && (len(parts) != 4 || !strings.Contains(parts[0], "allreduce on rank") ||
					!strings.Contains(parts[1], "iallreduce on rank") || parts[1] != parts[2] || !strings.HasPrefix(parts[3], "[0 1 2 4 5 6 7] 32 ")) {
					t.Errorf("rank %d observed %q", r, l)
				}
			}
		},
	}, {
		// A rank dies with three requests in flight, its helpers with it. Its
		// first helper had contributed before: the other node's first request
		// completes, the one of the rank beside it is interrupted by the
		// declaration, and the two behind find the communicator broken when
		// their turn comes.
		name: "a crash with requests in flight",
		mk:   func() *Cluster { return ftCluster(t, 2, 2, Crash{Rank: 1, At: 20}) },
		body: func(log []string) func(*Comm) {
			return func(c *Comm) {
				r := c.Rank()
				recv := make([]byte, 3*8)
				if r != 1 {
					c.Compute(60) // rank 1's requests are left waiting for partners
				}
				var reqs [3]*Request
				for i := range reqs {
					reqs[i] = c.IAllreduce(one(r), recv[8*i:8*i+8], Int64, Sum)
				}
				c.Compute(30) // rank 1 does not wake from this one
				var errs [3]error
				for i, rq := range reqs {
					errs[i] = rq.Wait()
				}
				sc, serr := c.Shrink()
				fail(serr)
				agreed, aerr := sc.Agree(^uint64(1) << uint(r))
				fail(aerr)
				fail(sc.Allreduce(one(r), recv[:8], Int64, Sum))
				log[r] = fmt.Sprint(errs, agreed, Int64s(recv)[0], c.Now())
			}
		},
		bodyT: func(log []string) func(*TComm, func()) {
			return func(tc *TComm, done func()) {
				r := tc.Rank()
				recv := make([]byte, 3*8)
				rest := func() {
					var reqs [3]*TRequest
					var errs [3]error
					each(0, 3, func(i int, next func()) {
						tc.IAllreduce(one(r), recv[8*i:8*i+8], Int64, Sum, func(rq *TRequest) { reqs[i] = rq; next() })
					}, func() {
						tc.Compute(30, func() {
							each(0, 3, func(i int, next func()) {
								reqs[i].Wait(func(err error) { errs[i] = err; next() })
							}, func() {
								tc.Shrink(func(sc *TComm, serr error) {
									fail(serr)
									sc.Agree(^uint64(1)<<uint(r), func(agreed uint64, aerr error) {
										fail(aerr)
										sc.Allreduce(one(r), recv[:8], Int64, Sum, func(ferr error) {
											fail(ferr)
											log[r] = fmt.Sprint(errs, agreed, Int64s(recv)[0], tc.Now())
											done()
										})
									})
								})
							})
						})
					})
				}
				if r != 1 {
					tc.Compute(60, rest)
					return
				}
				rest()
			}
		},
		expect: func(t *testing.T, res *Result, log []string) {
			if len(res.Failures) != 1 || res.Failures[0].Rank != 1 || res.Failures[0].CrashedAt != 30 || len(res.Repairs) != 2 {
				t.Fatalf("failures %+v, repairs %+v; want rank 1 dead at its wake-up and two rendezvous", res.Failures, res.Repairs)
			}
			for r, l := range log {
				if r != 1 && (strings.Count(l, "iallreduce on rank") < 2 || !strings.Contains(l, "] 18446744073709551600 8 ")) {
					t.Errorf("rank %d observed %q, want the last two requests failed, the survivors' flags and their sum", r, l)
				}
			}
		},
	}}
	run := func(t *testing.T, pg program, impl Impl) {
		cl := pg.mk()
		P := cl.Config().P()
		logP, logT := make([]string, P), make([]string, P)
		rp, err := cl.Run(impl, pg.body(logP))
		if err != nil {
			t.Fatalf("Run body: %v", err)
		}
		rt, err := cl.RunT(impl, pg.bodyT(logT))
		if err != nil {
			t.Fatalf("continuation body: %v", err)
		}
		pg.expect(t, rp, logP)
		if !reflect.DeepEqual(logP, logT) {
			t.Errorf("the ranks observed\n%q from a Run body,\n%q from a continuation body", logP, logT)
		}
		if a, b := pinOf(rp), pinOf(rt); a != b {
			t.Errorf("results diverge: procs %s, tasks %s", a, b)
		}
		if cl.Tracing() {
			sameSpans(t, rp, rt)
		}
	}
	for _, pg := range programs {
		t.Run(pg.name, func(t *testing.T) {
			run(t, pg, SRM)
			if pg.mk().FaultTolerance().Enabled {
				return // fault tolerance is SRM's only
			}
			for _, impl := range []Impl{IBMMPI, MPICHMPI} {
				t.Run(impl.String(), func(t *testing.T) { run(t, pg, impl) })
			}
		})
	}
}

// TestRunTDoneContract: every rank of a RunT body is handed one done, which
// finishes the rank whose step calls it. Called while no rank's step runs, or a
// second time for a rank, it fails by name (a *check.DoneError, the second
// carried by a *RunError naming the rank); called from a step of a rank's
// request helper, it finishes the rank the helper acts for.
func TestRunTDoneContract(t *testing.T) {
	t.Run("off every rank's task", func(t *testing.T) {
		var kept func()
		if _, err := mustCluster(t, 2, 2).RunT(SRM, func(tc *TComm, done func()) {
			kept = done
			done()
		}); err != nil {
			t.Fatal(err)
		}
		defer func() {
			de, ok := recover().(*check.DoneError)
			if !ok || de.Rank != -1 || de.Twice || !strings.Contains(de.Error(), "off every rank's task") {
				t.Errorf("done after the run panicked with %v, want a *check.DoneError naming no rank", de)
			}
		}()
		kept()
	})
	t.Run("twice", func(t *testing.T) {
		_, err := mustCluster(t, 2, 2).RunT(SRM, func(tc *TComm, done func()) {
			tc.Barrier(func(error) {
				done()
				if tc.Rank() == 2 {
					done()
				}
			})
		})
		var re *RunError
		var de *check.DoneError
		if !errors.As(err, &re) || !errors.As(err, &de) || re.Rank != 2 || re.Op != "done" || de.Rank != 2 || !de.Twice ||
			!strings.Contains(err.Error(), "rank 2: done called twice") {
			t.Errorf("RunT = %v, want a *RunError naming rank 2 in done, carrying a *check.DoneError", err)
		}
	})
	t.Run("from a helper", func(t *testing.T) {
		// Rank 3 leaves its done to a helper of its own, which calls it 7 µs
		// later: the rank is finished then, and no other.
		res, err := mustCluster(t, 2, 2).RunT(SRM, func(tc *TComm, done func()) {
			if tc.Rank() != 3 {
				done()
				return
			}
			rs := tc.rs()
			helper := rs.env.SpawnTaskK("rank3.req", 0, sim.Func(func() {
				rs.env.Running().SleepThen(7, done)
			}))
			rs.addHelper(helper, 3)
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []float64{0, 0, 0, 7}; !reflect.DeepEqual(res.PerRank, want) {
			t.Errorf("PerRank = %v, want %v", res.PerRank, want)
		}
	})
}
