package srmcoll

import (
	"errors"
	"fmt"
	"testing"

	"srmcoll/internal/sim"
)

// stallPins holds, per operation and shape, the pin (sim.Pin) of the stall a
// deadline cuts a lossy RunT of that operation short with: the digest of the
// events up to the deadline and the report. The report names every flag,
// counter and event a rank is blocked on by its report id, and a state
// constructor draws those ids in the order it creates them: a change to that
// order, or to what the state creates, moves the pin. The first ten rows are
// the regimes of bench/layers.go at their sizes and algorithms; the rest are
// the collectives no regime runs and the two other SMP broadcasts. They hold
// the behaviour recorded at 5970103, before the states became flat arrays.
var stallPins = []struct {
	name string
	v    Variant
	size int // a rank's bytes (a member's block for the rooted and all-to-all rows)
	op   func(tc *TComm, size int, k func(error))
	pin  [2]string // at 2x4 and 3x2
}{
	{"bcast_small", Variant{}, 4 << 10, stallBcast, [2]string{"1030d5a961a049c3/b3031787fef315bb", "e6de5db4aefaee6c/28e4b57c50ba86b5"}},
	{"bcast_pipe", Variant{}, 16 << 10, stallBcast, [2]string{"d8c04f747ccec3e8/4865c5f6cad60bdb", "3d87f6f626a1ccce/552ce4de69c34a56"}},
	{"bcast_large", Variant{}, 512 << 10, stallBcast, [2]string{"e75f133c76979616/bb75b22bcf6986b4", "bc27e32a140702b2/dbfb67e448a752c5"}},
	{"reduce_pipe", Variant{}, 64 << 10, stallReduce, [2]string{"cd43171c4ea1387d/d0d672dd16b83c66", "13d75eb1271d1ee5/cf71a153d81d4f28"}},
	{"allreduce_rd", Variant{}, 8 << 10, stallAllreduce, [2]string{"fc3d45c63ed8116a/4c1bcca16ba4ffda", "d74242b79b887eff/44ca7fe12279a610"}},
	{"allreduce_pipe", Variant{}, 64 << 10, stallAllreduce, [2]string{"fdd69b6b5b9f7ff8/b351100c14a33cad", "be043775c0105578/90575630274f0cf3"}},
	{"allreduce_ring", Variant{Allreduce: AllreduceRing}, 256 << 10, stallAllreduce, [2]string{"79f1b19de48cde52/52e4c37052c507df", "2a68fbc8773276f0/1f15c27200ead723"}},
	{"allreduce_rhd", Variant{Allreduce: AllreduceRHD}, 256 << 10, stallAllreduce, [2]string{"79f1b19de48cde52/9bfb04a75e01e36b", "51051c17a9f15815/524d17943ecc481a"}},
	{"allreduce_dualroot", Variant{Allreduce: AllreduceDualRoot}, 256 << 10, stallAllreduce, [2]string{"d9fec8d34d16bba6/07852d27406fd4e7", "0d9ad244091afeee/706f0a1137d337f5"}},
	{"barrier", Variant{}, 0, func(tc *TComm, _ int, k func(error)) { tc.Barrier(k) }, [2]string{"a6451f9f53cc996d/9f4a007ddfda4104", "97353f1219007d7a/73ab664ab20c18fc"}},
	{"gather", Variant{}, 512, func(tc *TComm, n int, k func(error)) {
		tc.Gather(make([]byte, n), make([]byte, n*tc.Size()), 0, k)
	}, [2]string{"5433029184b81a9c/74a820a8bda604d4", "27fdba9a1b595ea8/df7075f52e053460"}},
	{"scatter", Variant{}, 512, func(tc *TComm, n int, k func(error)) {
		tc.Scatter(make([]byte, n*tc.Size()), make([]byte, n), 0, k)
	}, [2]string{"d6e41f55d85789e2/fd2948629717f51e", "21dc3a1cb8d41ab2/80aac10725b4c1c8"}},
	{"alltoall", Variant{}, 256, func(tc *TComm, n int, k func(error)) {
		tc.Alltoall(make([]byte, n*tc.Size()), make([]byte, n*tc.Size()), k)
	}, [2]string{"35ef125390466705/5f85f47ddb1679b7", "74abc99786c27045/f01e2453f80fb82a"}},
	{"scan", Variant{}, 1 << 10, func(tc *TComm, n int, k func(error)) {
		tc.Scan(make([]byte, n), make([]byte, n), Float64, Sum, k)
	}, [2]string{"fe3934b8f43c4374/c81026c6d4bd54f6", "5b13995fdbd832ee/c8904c34206ff238"}},
	{"reducescatter", Variant{}, 256, func(tc *TComm, n int, k func(error)) {
		tc.ReduceScatter(make([]byte, n*tc.Size()), make([]byte, n), Float64, Sum, k)
	}, [2]string{"a2e0c6f8426d951f/9735e2de82330d2f", "2e26ba0c33a4c62f/040f58f924efbbba"}},
	{"allgather", Variant{}, 512, func(tc *TComm, n int, k func(error)) {
		tc.Allgather(make([]byte, n), make([]byte, n*tc.Size()), k)
	}, [2]string{"77755795702e832c/043d6dc507bb501c", "208e4bed995350d1/aab956d96ac91170"}},
	{"allgather_direct", Variant{}, 32 << 10, func(tc *TComm, n int, k func(error)) {
		tc.Allgather(make([]byte, n), make([]byte, n*tc.Size()), k)
	}, [2]string{"89a7de84d91ccf3c/27246bd0e62b9c65", "674decf22e0a9d19/20a43bf1705ce7a6"}},
	{"alltoall_direct", Variant{}, 4 << 10, func(tc *TComm, n int, k func(error)) {
		tc.Alltoall(make([]byte, n*tc.Size()), make([]byte, n*tc.Size()), k)
	}, [2]string{"eb71be1f5713082b/87ff538e78647cb7", "0c667fc117a299ca/d14bbee4f33c36e1"}},
	{"bcast_pipe_treepub", Variant{TreeSMPBcst: true}, 16 << 10, stallBcast, [2]string{"0ae7142bb37c2ba2/b028b0a1be07b52c", "5de09afda8a75a51/552ce4de69c34a56"}},
	{"bcast_pipe_barrierpub", Variant{BarrierSMPBcst: true}, 16 << 10, stallBcast, [2]string{"66c53f9afebcd7ab/cde7fe8d2288dbca", "7436f92e4410fb0b/d0257a4ba490b90a"}},
}

func stallBcast(tc *TComm, n int, k func(error)) { tc.Bcast(make([]byte, n), 0, k) }

func stallReduce(tc *TComm, n int, k func(error)) {
	tc.Reduce(make([]byte, n), make([]byte, n), Float64, Sum, 0, k)
}

func stallAllreduce(tc *TComm, n int, k func(error)) {
	tc.Allreduce(make([]byte, n), make([]byte, n), Float64, Sum, k)
}

// TestStallReportPins runs each pinned operation back to back on every rank
// of a 2x4 and a 3x2 cluster whose wire drops every put, which reliable
// delivery sends again and again until the deadline stops the run (later for
// larger messages, so that the run gets past its first copies), and compares
// the pins.
func TestStallReportPins(t *testing.T) {
	for _, p := range stallPins {
		for si, shape := range [2][2]int{{2, 4}, {3, 2}} {
			t.Run(fmt.Sprintf("%s/%dx%d", p.name, shape[0], shape[1]), func(t *testing.T) {
				cl := mustCluster(t, shape[0], shape[1])
				cl.SetVariant(p.v)
				cl.SetFaultPlan(FaultPlan{Seed: 3, Drop: 1, Reliable: true, Deadline: 200 + float64(p.size)/48})
				_, err := cl.RunT(SRM, func(tc *TComm, done func()) {
					var next func(error)
					next = func(error) { p.op(tc, p.size, next) }
					next(nil)
				})
				var se *StallError
				if !errors.As(err, &se) {
					t.Fatalf("err = %v, want a *StallError", err)
				}
				if got := sim.Pin(se.Digest, err.Error()); got != p.pin[si] {
					t.Errorf("stall pin = %s, pinned %s; the report:\n%v", got, p.pin[si], err)
				}
			})
		}
	}
}
