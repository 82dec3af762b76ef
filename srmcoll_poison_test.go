package srmcoll

import (
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/dtype"
)

// TestPoisonedBuffers reruns the suites that pin payload bytes and virtual
// time with the buffer pool's poison hook on: every pooled buffer is handed
// out, and left behind, filled with 0xA5. Protocol slots are carved from
// pooled memory and are not cleared, so a collective that read a slot byte it
// had not written, or used a buffer after its operation retired, would now
// compute on poison and fail the payload comparison in these suites.
func TestPoisonedBuffers(t *testing.T) {
	bufpool.Poison(true)
	defer bufpool.Poison(false)
	for _, suite := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"conformance-corpus", TestConformanceCorpus},
		{"zero-byte", TestZeroByteCollectives},
		{"engines", TestTaskEngineCollectivesBitIdentical},
		{"engines-smp-variants", TestTaskEngineSMPBcastVariants},
		{"engines-allreduce-algs", TestTaskEngineAllreduceAlgsBitIdentical},
		{"engines-wire-faults", TestTaskEngineWireFaults},
		{"engines-allreduce-algs-wire-faults", TestTaskEngineAllreduceAlgsWireFaults},
		{"fault-replay-golden", TestFaultReplayMatchesGolden},
		{"ring-fault-replay-golden", TestRingFaultReplayGolden},
	} {
		t.Run(suite.name, suite.run)
	}
}

// TestLateDuplicateMissesRecycledBuffers is the free point pooled protocol
// buffers create. Without reliable delivery a duplicated put is delivered in
// full a wire latency (plus any delay) after the original, by which time its
// operation may have retired; if the slot it targets had gone back to the
// pool, the duplicate would land in the payload of whichever later operation
// received that memory. Operations therefore keep their buffers out of the
// pool while the plan can duplicate. With recycling forced on, rank 4 of
// this run read a corrupted reduce result.
func TestLateDuplicateMissesRecycledBuffers(t *testing.T) {
	cl := mustCluster(t, 2, 4)
	cl.SetFaultPlan(FaultPlan{Seed: 10, Dup: 1, Delay: 0.5, DelayMax: 20, Deadline: 1e6})
	const P = 8
	steps := []struct {
		op      string
		n, root int
	}{{"allreduce", 100, 0}, {"bcast", 100, 7}, {"reduce", 64, 4}}
	bad := make([][]string, P)
	_, err := cl.Run(SRM, func(c *Comm) {
		for it, st := range steps {
			send := make([]float64, st.n)
			for i := range send {
				send[i] = float64(it + i + c.Rank())
			}
			sum := func(i int) float64 { return float64(P*(it+i) + P*(P-1)/2) }
			var got []float64
			want := sum
			switch st.op {
			case "allreduce":
				got = c.AllreduceFloat64(send, Sum)
			case "reduce":
				got = c.ReduceFloat64(send, Sum, st.root)
			case "bcast":
				buf := dtype.Float64Bytes(send)
				c.Bcast(buf, st.root)
				got = dtype.Float64s(buf)
				want = func(i int) float64 { return float64(it + i + st.root) }
			}
			for i, v := range got {
				if v != want(i) {
					bad[c.Rank()] = append(bad[c.Rank()], st.op)
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ops := range bad {
		if len(ops) > 0 {
			t.Errorf("rank %d: wrong payload in %v", r, ops)
		}
	}
}
