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
//
// Every suite runs twice. Payload memory outlives a run, and what a warm
// buffer holds is the previous run's bytes — in a repeated run, the right
// answer — so the pass that matters is the second, which the reserve serves
// with the first one's memory: tainted again when it is checked out.
func TestPoisonedBuffers(t *testing.T) {
	// The spare the first suite starts from is made before the switch, clean.
	bufpool.DrainReserve()
	TestAllreduceFloat64Helper(t)
	bufpool.Poison(true)
	defer bufpool.Poison(false)
	suites := []struct {
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
	}
	for pass := 0; pass < 2; pass++ {
		for _, suite := range suites {
			t.Run(suite.name, suite.run) // the second pass is named suite#01
			// What the next run is about to be handed: the last run's pool,
			// and not a byte of what that run wrote.
			if bufpool.Reserve().Spares == 0 {
				t.Fatalf("pass %d: no spare in the reserve after %s", pass, suite.name)
			}
			p := bufpool.CheckOut()
			probe := p.Get(16 << 10)
			for i, v := range probe {
				if v != 0xA5 {
					t.Fatalf("pass %d: after %s the reserve hands out byte %d = %#x of an earlier run", pass, suite.name, i, v)
				}
			}
			p.Put(probe)
			bufpool.HandBack(p)
		}
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
