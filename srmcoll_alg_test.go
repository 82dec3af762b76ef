package srmcoll

// Targeted tests for the selectable allreduce algorithm families (ring,
// recursive halving/doubling, dual-root pipelined trees): differential
// conformance against the sequential reference over a fixed shape/size
// grid, the non-power-of-two fold-in regression for halving/doubling,
// engine bit-identity for every family, fault/trace equivalence, and a
// seeded fault-replay golden for the ring under drops + reliable mode.
// The randomized corpus (srmcoll_conformance_test.go) layers the same
// families over random modes and splits; this file pins the deliberate
// corners the generator only hits by luck.

import (
	"fmt"
	"reflect"
	"testing"
)

// algFamilies are the explicitly selectable allreduce algorithms; Auto is
// covered by the pre-existing suites.
var algFamilies = []AllreduceAlg{AllreduceRing, AllreduceRHD, AllreduceDualRoot}

// TestAllreduceAlgorithmsMatchReference drives each family through the
// conformance checker over shapes spanning one node to many, power-of-two
// and non-power-of-two node counts, and sizes from a single element to a
// multi-chunk vector, rotating dtype and operator.
func TestAllreduceAlgorithmsMatchReference(t *testing.T) {
	shapes := []struct{ nodes, tpn int }{
		{1, 3}, {2, 4}, {3, 2}, {4, 4}, {6, 1}, {5, 3},
	}
	sizes := []struct {
		elems int
		dt    Datatype
		rop   Op
	}{
		{1, Float64, Sum},
		{7, Int32, Max},
		{48, Uint8, Bxor},
		{1024, Float32, Min},
		{8192, Int64, Sum},
	}
	for _, alg := range algFamilies {
		for _, sh := range shapes {
			for _, sz := range sizes {
				if sz.elems == 8192 && sh.nodes*sh.tpn > 8 {
					continue // keep the big-vector points on the small shapes
				}
				sc := confScenario{
					nodes: sh.nodes, tpn: sh.tpn, impl: SRM, alg: alg,
					steps: []confStep{{op: 3, elems: sz.elems, dt: sz.dt, rop: sz.rop}},
				}
				t.Run(sc.String(), func(t *testing.T) { checkScenario(t, sc) })
			}
		}
	}
}

// TestAllreduceAlgorithmsNonBlockingAndSplit exercises each family through
// the non-blocking issue/Wait path, the batched-request path, and the
// split-communicator path, including back-to-back steps that force
// sequence-keyed shared-state reacquisition.
func TestAllreduceAlgorithmsNonBlockingAndSplit(t *testing.T) {
	for _, alg := range algFamilies {
		cases := []confScenario{
			{nodes: 3, tpn: 3, impl: SRM, mode: 1, alg: alg,
				steps: []confStep{
					{op: 3, elems: 33, dt: Float64, rop: Sum},
					{op: 3, elems: 5, dt: Int64, rop: Bor},
				}},
			{nodes: 4, tpn: 2, impl: SRM, mode: 2, batch: 3, lifo: true, alg: alg,
				steps: []confStep{
					{op: 3, elems: 12, dt: Int32, rop: Sum},
					{op: 0},
					{op: 3, elems: 200, dt: Float32, rop: Max},
				}},
			{nodes: 4, tpn: 3, impl: SRM, split: 1, alg: alg,
				steps: []confStep{{op: 3, elems: 21, dt: Float64, rop: Min}}},
			{nodes: 3, tpn: 4, impl: SRM, split: 2, mode: 1, alg: alg,
				steps: []confStep{{op: 3, elems: 64, dt: Uint8, rop: Band}}},
		}
		for _, sc := range cases {
			t.Run(sc.String(), func(t *testing.T) { checkScenario(t, sc) })
		}
	}
}

// TestRHDFoldInNonPowerOfTwo is the regression for the halving/doubling
// pre/post fold-in: every non-power-of-two node count must route the extra
// nodes through the fold (never silently fall back), and the folded result
// must still match the sequential reference bit-for-bit. n=3, 6, 12 cover
// one, two, and four extras over different power-of-two cores.
func TestRHDFoldInNonPowerOfTwo(t *testing.T) {
	for _, nodes := range []int{3, 6, 12} {
		for _, elems := range []int{1, 5, 33, 1000} {
			sc := confScenario{
				nodes: nodes, tpn: 1, impl: SRM, alg: AllreduceRHD,
				steps: []confStep{{op: 3, elems: elems, dt: Float64, rop: Sum}},
			}
			t.Run(sc.String(), func(t *testing.T) { checkScenario(t, sc) })
		}
	}
}

// mkAlgAllreduce builds a runBothEngines scenario: one allreduce of the
// given element count with a per-rank linear pattern, verified against the
// closed-form sum.
func mkAlgAllreduce(elems int) func(P int) (func(tc *TComm, done func()), func(t *testing.T, eng string)) {
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

// TestTaskEngineAllreduceAlgsBitIdentical runs every family on both
// engines and requires identical virtual time, per-rank completion, and
// counters — the CPS transcriptions must make the same calls in the same
// order as the goroutine protocols.
func TestTaskEngineAllreduceAlgsBitIdentical(t *testing.T) {
	shapes := []struct{ nodes, tpn int }{{2, 4}, {3, 2}}
	for _, alg := range algFamilies {
		for _, sh := range shapes {
			for _, elems := range []int{128, 8192} {
				name := fmt.Sprintf("%v-%dx%d-%d", alg, sh.nodes, sh.tpn, elems)
				t.Run(name, func(t *testing.T) {
					cl := mustCluster(t, sh.nodes, sh.tpn)
					cl.SetVariant(Variant{Allreduce: alg})
					runBothEngines(t, cl, SRM, mkAlgAllreduce(elems))
				})
			}
		}
	}
}

// TestTaskEngineAllreduceAlgsWireFaults repeats the engine comparison per
// family under an injected drop/dup/delay plan with reliable delivery: the
// retransmission machinery must replay identically under both engines.
func TestTaskEngineAllreduceAlgsWireFaults(t *testing.T) {
	for _, alg := range algFamilies {
		t.Run(alg.String(), func(t *testing.T) {
			cl := mustCluster(t, 2, 4)
			cl.SetVariant(Variant{Allreduce: alg})
			cl.SetFaultPlan(FaultPlan{
				Seed: 23, Drop: 0.1, Dup: 0.1, Delay: 0.3, DelayMax: 4,
				Reliable: true, AckTimeout: 50, Deadline: 5e6,
			})
			rp, _ := runBothEngines(t, cl, SRM, mkAlgAllreduce(2048))
			if rp.Faults == (FaultSummary{}) {
				t.Fatal("fault plan injected nothing; scenario too small to exercise the wire")
			}
		})
	}
}

// TestTaskEngineAllreduceAlgsTraced compares full span timelines per
// family: same spans, same classes, same virtual times, same tracks —
// including the dual-root broadcast helper's dedicated track.
func TestTaskEngineAllreduceAlgsTraced(t *testing.T) {
	for _, alg := range algFamilies {
		t.Run(alg.String(), func(t *testing.T) {
			cl := mustCluster(t, 2, 2)
			cl.SetVariant(Variant{Allreduce: alg})
			cl.SetTracing(true)
			defer cl.SetTracing(false)
			rp, rt := runBothEngines(t, cl, SRM, mkAlgAllreduce(512))
			sp, st := rp.Trace.Spans(), rt.Trace.Spans()
			if len(sp) != len(st) {
				t.Fatalf("span counts diverge: procs %d, tasks %d", len(sp), len(st))
			}
			for i := range sp {
				if !reflect.DeepEqual(sp[i], st[i]) {
					t.Fatalf("span %d diverges:\nprocs %+v\ntasks %+v", i, sp[i], st[i])
				}
			}
		})
	}
}

// ringFaultProbeBody runs three ring allreduces of assorted sizes and
// records each rank's final output so the replay test can hash delivered
// payload bytes alongside the timing trace.
func ringFaultProbeBody(out [][]byte) func(c *Comm) {
	return func(c *Comm) {
		r := c.Rank()
		for step, elems := range []int{96, 1024, 7} {
			send := confInput(step, r, elems, Float64)
			recv := make([]byte, len(send))
			c.Allreduce(send, recv, Float64, Sum)
			if step == 2 {
				out[r] = recv
			}
		}
	}
}

// TestRingFaultReplayGolden pins the ring allreduce under a seeded
// drop-heavy reliable-delivery plan to the replay the simulator produced when
// the algorithm landed: its schedule, counters, injected faults and delivered
// payload bytes, which the drops must not corrupt. A second run under the same
// plan must be bit-identical.
func TestRingFaultReplayGolden(t *testing.T) {
	run := func() string {
		cl := mustCluster(t, 4, 2)
		cl.SetVariant(Variant{Allreduce: AllreduceRing})
		cl.SetFaultPlan(FaultPlan{
			Seed: 4242, Drop: 0.12, Reliable: true,
			AckTimeout: 50, Deadline: 5e6,
		})
		out := make([][]byte, 8)
		res, err := cl.Run(SRM, ringFaultProbeBody(out))
		if err != nil {
			t.Fatal(err)
		}
		g := make([]int, 8)
		for r := range g {
			g[r] = r
		}
		want := refFold(confStep{elems: 7, dt: Float64, rop: Sum}, 2, g, 7)
		for r := range out {
			if !reflect.DeepEqual(out[r], want) {
				t.Errorf("rank %d payload diverges from reference", r)
			}
		}
		return pinOf(res, out)
	}
	const golden = "3cfba311e0662ba6/27de7f6913211a6f"
	if got := run(); got != golden {
		t.Errorf("pin = %s, golden %s", got, golden)
	} else if got := run(); got != golden {
		t.Errorf("replay diverges: pin %s", got)
	}
}
