package srmcoll

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustCluster(t testing.TB, nodes, tpn int) *Cluster {
	t.Helper()
	cl, err := NewCluster(ColonySP(nodes, tpn))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func impls() []Impl { return []Impl{SRM, IBMMPI, MPICHMPI} }

func TestNewClusterRejectsInvalid(t *testing.T) {
	// A zero bounce-buffer packet would make the shared-memory rendezvous
	// pipe advance no bytes per chunk: a baseline Bcast above the packet
	// size would never return.
	noPkt := ColonySP(1, 2)
	noPkt.ShmPktSize = 0
	// A NaN latency would make every delivery time NaN: Run returned Time 0.
	nanLat := ColonySP(2, 2)
	nanLat.MemLatency = math.NaN()
	// A daemon model that divides by a zero period ran a Bcast, an Allreduce
	// and a Barrier to Time 0; a slice longer than its period more than
	// doubled the time; no CPUs switched the model off without a word.
	noPeriod := ColonySP(2, 2)
	noPeriod.CPUsPerNode, noPeriod.DaemonPeriod, noPeriod.DaemonSlice = 2, 0, 1
	longSlice := ColonySP(2, 2)
	longSlice.CPUsPerNode, longSlice.DaemonPeriod, longSlice.DaemonSlice = 2, 1, 5
	noCPUs := ColonySP(2, 2)
	noCPUs.CPUsPerNode, noCPUs.DaemonSlice = 0, 1
	for _, c := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"zero config", Config{}, "Nodes"},
		{"zero shm packet", noPkt, "ShmPktSize"},
		{"NaN memory latency", nanLat, "MemLatency"},
		{"rank count overflows", ColonySP(math.MaxInt/2, 4), "Nodes × TasksPerNode"},
		{"rank count overflows per node", ColonySP(4, math.MaxInt/2), "Nodes × TasksPerNode"},
		{"rank count beyond int32", ColonySP(1<<16, 1<<15), "Nodes × TasksPerNode"},
		{"daemon period zero", noPeriod, "DaemonPeriod"},
		{"daemon slice beyond its period", longSlice, "DaemonPeriod"},
		{"daemons on no CPUs", noCPUs, "CPUsPerNode"},
	} {
		_, err := NewCluster(c.cfg)
		if err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.field)
		}
	}
}

func TestImplString(t *testing.T) {
	if SRM.String() != "srm" || IBMMPI.String() != "ibm-mpi" || MPICHMPI.String() != "mpich" {
		t.Fatal("impl names wrong")
	}
	if !strings.Contains(Impl(9).String(), "9") {
		t.Fatal("unknown impl should still print")
	}
}

func TestRunUnknownImpl(t *testing.T) {
	cl := mustCluster(t, 1, 2)
	if _, err := cl.Run(Impl(42), func(*Comm) {}); err == nil {
		t.Fatal("unknown impl accepted")
	}
}

func TestCommIdentity(t *testing.T) {
	cl := mustCluster(t, 2, 3)
	seen := make([]bool, 6)
	res, err := cl.Run(SRM, func(c *Comm) {
		if c.Size() != 6 {
			t.Errorf("Size() = %d", c.Size())
		}
		if c.Node() != c.Rank()/3 || c.LocalRank() != c.Rank()%3 {
			t.Errorf("rank %d: node=%d local=%d", c.Rank(), c.Node(), c.LocalRank())
		}
		seen[c.Rank()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range seen {
		if !s {
			t.Errorf("rank %d never ran", r)
		}
	}
	if len(res.PerRank) != 6 {
		t.Errorf("PerRank has %d entries", len(res.PerRank))
	}
}

func TestBcastAllImpls(t *testing.T) {
	cl := mustCluster(t, 2, 4)
	payload := []byte("collective broadcast payload over the cluster")
	for _, im := range impls() {
		bufs := make([][]byte, 8)
		_, err := cl.Run(im, func(c *Comm) {
			bufs[c.Rank()] = make([]byte, len(payload))
			if c.Rank() == 2 {
				copy(bufs[2], payload)
			}
			c.Bcast(bufs[c.Rank()], 2)
		})
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		for r := range bufs {
			if !bytes.Equal(bufs[r], payload) {
				t.Fatalf("%v: rank %d corrupted", im, r)
			}
		}
	}
}

func TestReduceFloat64Helper(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	for _, im := range impls() {
		var got []float64
		_, err := cl.Run(im, func(c *Comm) {
			v := []float64{float64(c.Rank()), 1}
			out := c.ReduceFloat64(v, Sum, 0)
			if c.Rank() == 0 {
				got = out
			} else if out != nil {
				t.Errorf("%v: non-root got non-nil reduce result", im)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 0+1+2+3 || got[1] != 4 {
			t.Fatalf("%v: reduce = %v", im, got)
		}
	}
}

func TestAllreduceFloat64Helper(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	for _, im := range impls() {
		_, err := cl.Run(im, func(c *Comm) {
			out := c.AllreduceFloat64([]float64{1, float64(c.Rank())}, Sum)
			if out[0] != 4 || out[1] != 6 {
				t.Errorf("%v rank %d: allreduce = %v", im, c.Rank(), out)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBarrierTimesAndStats(t *testing.T) {
	cl := mustCluster(t, 4, 4)
	res, err := cl.Run(SRM, func(c *Comm) { c.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("barrier took no virtual time")
	}
	if res.Stats.Puts == 0 {
		t.Fatal("SRM barrier used no RMA puts across 4 nodes")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	cl := mustCluster(t, 1, 1)
	res, err := cl.Run(SRM, func(c *Comm) {
		before := c.Now()
		c.Compute(123.5)
		if c.Now()-before != 123.5 {
			t.Errorf("Compute advanced %v", c.Now()-before)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 123.5 {
		t.Errorf("Time = %v", res.Time)
	}
}

func TestMismatchedCollectivesError(t *testing.T) {
	cl := mustCluster(t, 1, 2)
	_, err := cl.Run(SRM, func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier() // rank 1 never joins
		}
	})
	if err == nil {
		t.Fatal("deadlocked run returned no error")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cl := mustCluster(t, 2, 8)
	run := func() float64 {
		res, err := cl.Run(SRM, func(c *Comm) {
			buf := make([]byte, 32<<10)
			c.Bcast(buf, 0)
			c.AllreduceFloat64(make([]float64, 100), Sum)
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSRMBeatsBaselinesOnBarrier(t *testing.T) {
	// The headline claim at small scale: SRM barrier beats both baselines.
	cl := mustCluster(t, 4, 16)
	times := map[Impl]float64{}
	for _, im := range impls() {
		res, err := cl.Run(im, func(c *Comm) {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		times[im] = res.Time
	}
	if times[SRM] >= times[IBMMPI] || times[SRM] >= times[MPICHMPI] {
		t.Errorf("SRM barrier (%v) should beat IBM (%v) and MPICH (%v)",
			times[SRM], times[IBMMPI], times[MPICHMPI])
	}
}

func TestVariantTreeKinds(t *testing.T) {
	cl := mustCluster(t, 4, 2)
	payload := []byte("variant payload")
	for _, k := range []struct {
		name string
		v    Variant
	}{
		{"binary", Variant{InterTree: Binary}},
		{"fibonacci", Variant{InterTree: Fibonacci}},
		{"tree-smp", Variant{TreeSMPBcst: true}},
	} {
		cl.SetVariant(k.v)
		bufs := make([][]byte, 8)
		_, err := cl.Run(SRM, func(c *Comm) {
			bufs[c.Rank()] = make([]byte, len(payload))
			if c.Rank() == 0 {
				copy(bufs[0], payload)
			}
			c.Bcast(bufs[c.Rank()], 0)
		})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		for r := range bufs {
			if !bytes.Equal(bufs[r], payload) {
				t.Fatalf("%s: rank %d corrupted", k.name, r)
			}
		}
	}
	cl.SetVariant(Variant{})
}

func TestConfigAccessor(t *testing.T) {
	cl := mustCluster(t, 2, 4)
	if cl.Config().Nodes != 2 || cl.Config().P() != 8 {
		t.Fatal("Config() wrong")
	}
}

func TestGatherScatterAllgatherAllImpls(t *testing.T) {
	cl := mustCluster(t, 2, 3)
	const blk = 96
	blockOf := func(r int) []byte {
		b := make([]byte, blk)
		for i := range b {
			b[i] = byte(r*11 + i)
		}
		return b
	}
	want := make([]byte, 0, 6*blk)
	for r := 0; r < 6; r++ {
		want = append(want, blockOf(r)...)
	}
	for _, im := range impls() {
		gathered := make([]byte, 6*blk)
		scattered := make([][]byte, 6)
		allg := make([][]byte, 6)
		_, err := cl.Run(im, func(c *Comm) {
			var rb []byte
			if c.Rank() == 1 {
				rb = gathered
			}
			c.Gather(blockOf(c.Rank()), rb, 1)

			scattered[c.Rank()] = make([]byte, blk)
			var sb []byte
			if c.Rank() == 1 {
				sb = gathered
			}
			c.Scatter(sb, scattered[c.Rank()], 1)

			allg[c.Rank()] = make([]byte, 6*blk)
			c.Allgather(blockOf(c.Rank()), allg[c.Rank()])
		})
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		if !bytes.Equal(gathered, want) {
			t.Fatalf("%v: gather wrong", im)
		}
		for r := 0; r < 6; r++ {
			if !bytes.Equal(scattered[r], blockOf(r)) {
				t.Fatalf("%v: scatter rank %d wrong", im, r)
			}
			if !bytes.Equal(allg[r], want) {
				t.Fatalf("%v: allgather rank %d wrong", im, r)
			}
		}
	}
}

func TestAllgatherFloat64Helper(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	_, err := cl.Run(SRM, func(c *Comm) {
		out := c.AllgatherFloat64([]float64{float64(c.Rank()), -1})
		for r := 0; r < 4; r++ {
			if out[2*r] != float64(r) || out[2*r+1] != -1 {
				t.Errorf("rank %d: allgather slot %d = %v", c.Rank(), r, out[2*r:2*r+2])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSRMGatherBeatsBaselines(t *testing.T) {
	cl := mustCluster(t, 4, 8)
	times := map[Impl]float64{}
	for _, im := range impls() {
		res, err := cl.Run(im, func(c *Comm) {
			recv := make([]byte, 4096*c.Size())
			var rb []byte
			if c.Rank() == 0 {
				rb = recv
			}
			c.Gather(make([]byte, 4096), rb, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		times[im] = res.Time
	}
	if times[SRM] >= times[IBMMPI] || times[SRM] >= times[MPICHMPI] {
		t.Errorf("SRM gather (%v) should beat IBM (%v) and MPICH (%v)",
			times[SRM], times[IBMMPI], times[MPICHMPI])
	}
}

func TestSubCommunicator(t *testing.T) {
	cl := mustCluster(t, 2, 4)
	members := []int{1, 3, 4, 6}
	payload := []byte("subgroup broadcast")
	for _, im := range impls() {
		bufs := make([][]byte, 8)
		sums := make([]float64, 8)
		_, err := cl.Run(im, func(c *Comm) {
			if c.Size() != 8 {
				t.Errorf("world size = %d", c.Size())
			}
			in := false
			for _, r := range members {
				if r == c.Rank() {
					in = true
				}
			}
			if !in {
				return // non-members sit this one out
			}
			sub := c.Sub(members)
			if sub.Size() != 4 {
				t.Errorf("sub size = %d", sub.Size())
			}
			bufs[c.Rank()] = make([]byte, len(payload))
			if c.Rank() == 3 {
				copy(bufs[3], payload)
			}
			sub.Bcast(bufs[c.Rank()], 3)
			sums[c.Rank()] = sub.AllreduceFloat64([]float64{float64(c.Rank())}, Sum)[0]
			sub.Barrier()
		})
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		for _, r := range members {
			if !bytes.Equal(bufs[r], payload) {
				t.Fatalf("%v: member %d bcast corrupted", im, r)
			}
			if sums[r] != 1+3+4+6 {
				t.Fatalf("%v: member %d allreduce = %v", im, r, sums[r])
			}
		}
	}
}

func TestSubThenWorldSequence(t *testing.T) {
	// A realistic pattern: a subgroup phase followed by a world barrier.
	cl := mustCluster(t, 2, 2)
	res, err := cl.Run(SRM, func(c *Comm) {
		if c.Rank() < 2 {
			sub := c.Sub([]int{0, 1})
			sub.Barrier()
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
}

// Property: for any small shape and payload, every implementation agrees on
// broadcast results.
func TestPropImplsAgreeOnBcast(t *testing.T) {
	f := func(nRaw, tRaw uint8, payload []byte) bool {
		nodes := int(nRaw)%3 + 1
		tpn := int(tRaw)%3 + 1
		cl, err := NewCluster(ColonySP(nodes, tpn))
		if err != nil {
			return false
		}
		for _, im := range impls() {
			bufs := make([][]byte, nodes*tpn)
			_, err := cl.Run(im, func(c *Comm) {
				bufs[c.Rank()] = make([]byte, len(payload))
				if c.Rank() == 0 {
					copy(bufs[0], payload)
				}
				c.Bcast(bufs[c.Rank()], 0)
			})
			if err != nil {
				return false
			}
			for r := range bufs {
				if !bytes.Equal(bufs[r], payload) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedCounterFetchAdd(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	prevs := make([]int64, 4)
	_, err := cl.Run(SRM, func(c *Comm) {
		sc := c.SharedCounter("jobs", 0, 100)
		prevs[c.Rank()] = sc.FetchAdd(c, 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for r, v := range prevs {
		if v < 100 || v >= 140 || (v-100)%10 != 0 || seen[v] {
			t.Fatalf("rank %d: prev = %d (all: %v)", r, v, prevs)
		}
		seen[v] = true
	}
}

func TestSharedCounterSwapAndCAS(t *testing.T) {
	cl := mustCluster(t, 2, 1)
	_, err := cl.Run(SRM, func(c *Comm) {
		sc := c.SharedCounter("state", 1, 0)
		if c.Rank() == 0 {
			if prev := sc.Swap(c, 5); prev != 0 {
				t.Errorf("swap prev = %d", prev)
			}
			if prev := sc.CompareAndSwap(c, 5, 9); prev != 5 {
				t.Errorf("cas prev = %d", prev)
			}
			if prev := sc.CompareAndSwap(c, 5, 77); prev != 9 {
				t.Errorf("stale cas prev = %d", prev)
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedCounterSharedAcrossRanks(t *testing.T) {
	cl := mustCluster(t, 1, 4)
	var final int64
	_, err := cl.Run(SRM, func(c *Comm) {
		sc := c.SharedCounter("acc", 2, 0)
		sc.FetchAdd(c, int64(c.Rank()+1))
		c.Barrier()
		if c.Rank() == 2 {
			final = sc.FetchAdd(c, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 1+2+3+4 {
		t.Fatalf("counter = %d, want 10", final)
	}
}

func TestReduceScatterAllImpls(t *testing.T) {
	cl := mustCluster(t, 2, 3)
	for _, im := range impls() {
		got := make([][]float64, 6)
		_, err := cl.Run(im, func(c *Comm) {
			send := make([]float64, 6)
			for i := range send {
				send[i] = float64((c.Rank() + 1) * (i + 1))
			}
			recv := make([]byte, 8)
			c.ReduceScatter(Float64Bytes(send), recv, Float64, Sum)
			got[c.Rank()] = Float64s(recv)
		})
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		// sum over ranks of (r+1)*(i+1) = 21*(i+1); rank i gets block i.
		for r := 0; r < 6; r++ {
			if got[r][0] != float64(21*(r+1)) {
				t.Fatalf("%v: rank %d block = %v, want %v", im, r, got[r][0], 21*(r+1))
			}
		}
	}
}

func TestScanExscanAllImpls(t *testing.T) {
	cl := mustCluster(t, 2, 3)
	for _, im := range impls() {
		incl := make([]float64, 6)
		excl := make([]float64, 6)
		_, err := cl.Run(im, func(c *Comm) {
			send := Float64Bytes([]float64{float64(c.Rank() + 1)})
			r1 := make([]byte, 8)
			c.Scan(send, r1, Float64, Sum)
			incl[c.Rank()] = Float64s(r1)[0]
			r2 := make([]byte, 8)
			c.Exscan(send, r2, Float64, Sum)
			excl[c.Rank()] = Float64s(r2)[0]
		})
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		for r := 0; r < 6; r++ {
			wantIncl := float64((r + 1) * (r + 2) / 2)
			if incl[r] != wantIncl {
				t.Fatalf("%v: scan rank %d = %v, want %v", im, r, incl[r], wantIncl)
			}
			if excl[r] != wantIncl-float64(r+1) {
				t.Fatalf("%v: exscan rank %d = %v", im, r, excl[r])
			}
		}
	}
}
