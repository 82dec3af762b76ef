package srmcoll

import (
	"fmt"
	"testing"

	"srmcoll/internal/tree"
)

// TestWindowCheckIsSilent runs the suites that pin payload bytes, under the
// put-window check every test of the package runs under (TestMain), as one
// named set: every clean-wire put fills its target window with poison at issue
// and must find the poison intact when it lands. A protocol that wrote a window
// while a put into it was in flight — a slot reused before its consumer drained
// it, a credit overrun — would be reported with origin and target named, and
// one that read a window before its put landed would compute on poison and fail
// the payload comparison. Silence here is what lets the clean wire land a put's
// bytes at issue. The tree-kind matrix and the train cell run only here.
func TestWindowCheckIsSilent(t *testing.T) {
	for _, suite := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"conformance-corpus", TestConformanceCorpus},
		{"zero-byte", TestZeroByteCollectives},
		{"engines", TestTaskEngineCollectivesBitIdentical},
		{"engines-smp-variants", TestTaskEngineSMPBcastVariants},
		{"engines-allreduce-algs", TestTaskEngineAllreduceAlgsBitIdentical},
		{"tree-kinds", windowTreeKinds},
		{"train-cell", windowTrainCell},
	} {
		t.Run(suite.name, suite.run)
	}
}

// windowTreeKinds is the engine-equivalence matrix over the six inter-node tree
// kinds and the four allreduce families: the pipelined broadcast, both reduce
// regimes and both allreduce regimes, from both forms of body, on three and
// four nodes.
func windowTreeKinds(t *testing.T) {
	scenarios := engCollectiveScenarios()
	kinds := []tree.Kind{tree.Binomial, tree.Binary, tree.Fibonacci, tree.Flat, tree.Multilevel, tree.Bine}
	for _, shape := range [][2]int{{3, 2}, {4, 1}} {
		for _, kind := range kinds {
			for _, alg := range []AllreduceAlg{AllreduceAuto, AllreduceRing, AllreduceRHD, AllreduceDualRoot} {
				for _, name := range []string{"bcast-pipelined", "reduce", "reduce-pipelined", "allreduce-small", "allreduce-large"} {
					t.Run(fmt.Sprintf("%dx%d/%v/%v/%s", shape[0], shape[1], kind, alg, name), func(t *testing.T) {
						cl := mustCluster(t, shape[0], shape[1])
						cl.SetVariant(Variant{InterTree: kind, Allreduce: alg})
						runBothEngines(t, cl, SRM, scenarios[name])
					})
				}
			}
		}
	}
}

// windowTrainCell is a cell of the training workload at 2x4 for each allreduce
// family: four 64 KiB gradient buckets, each issued as a non-blocking allreduce
// behind the next one's backprop, the sums checked after the step.
func windowTrainCell(t *testing.T) {
	const P, buckets, elems = 8, 4, 8 << 10
	for _, alg := range []AllreduceAlg{AllreduceAuto, AllreduceRing, AllreduceRHD, AllreduceDualRoot} {
		cl := mustCluster(t, 2, 4)
		cl.SetVariant(Variant{Allreduce: alg})
		wrong := make([]int, P)
		_, err := cl.Run(SRM, func(c *Comm) {
			r := c.Rank()
			recvs := make([][]byte, buckets)
			reqs := make([]*Request, buckets)
			for b := range reqs {
				send := make([]float64, elems)
				for i := range send {
					send[i] = float64(r + b + i%7)
				}
				recvs[b] = make([]byte, 8*elems)
				c.Compute(50)
				reqs[b] = c.IAllreduce(Float64Bytes(send), recvs[b], Float64, Sum)
			}
			for b, rq := range reqs {
				if err := rq.Wait(); err != nil {
					panic(err)
				}
				for i, v := range Float64s(recvs[b]) {
					if v != float64(P*(P-1)/2+P*(b+i%7)) {
						wrong[r]++
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for r, n := range wrong {
			if n > 0 {
				t.Errorf("%v: rank %d has %d wrong elements", alg, r, n)
			}
		}
	}
}
