package srmcoll

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
)

// stallPins holds, per operation and shape, a hash of the stall report a
// deadline cuts a lossy RunT of that operation short with. The report names
// every flag, counter and event a rank is blocked on by its report id, and a
// state constructor draws those ids in the order it creates them: a change to
// that order, or to what the state creates, moves the hash. The first ten rows
// are the regimes of bench/layers.go at their sizes and algorithms; the rest
// are the collectives no regime runs and the two other SMP broadcasts.
// Recorded at 5970103, before the states became flat arrays.
var stallPins = []struct {
	name string
	v    Variant
	size int // a rank's bytes (a member's block for the rooted and all-to-all rows)
	op   func(tc *TComm, size int, k func(error))
	hash [2]string // at 2x4 and 3x2
}{
	{"bcast_small", Variant{}, 4 << 10, stallBcast, [2]string{"c61544334a0bef65", "f65ed67ee2ccc781"}},
	{"bcast_pipe", Variant{}, 16 << 10, stallBcast, [2]string{"ab58b97e689da74d", "9b54751e18865365"}},
	{"bcast_large", Variant{}, 512 << 10, stallBcast, [2]string{"97191050328c85ab", "fac3b5df6abdab5d"}},
	{"reduce_pipe", Variant{}, 64 << 10, stallReduce, [2]string{"d082ede49a664ccc", "ef412160ace46e87"}},
	{"allreduce_rd", Variant{}, 8 << 10, stallAllreduce, [2]string{"bd4b5a71d50274bb", "736639ad04f01851"}},
	{"allreduce_pipe", Variant{}, 64 << 10, stallAllreduce, [2]string{"aa5621bba95d24b6", "b432dd0916402f6e"}},
	{"allreduce_ring", Variant{Allreduce: AllreduceRing}, 256 << 10, stallAllreduce, [2]string{"2c667be6d573fee5", "5370b31f0c889999"}},
	{"allreduce_rhd", Variant{Allreduce: AllreduceRHD}, 256 << 10, stallAllreduce, [2]string{"5b73a8d5886d601a", "6acb71d2b56153e9"}},
	{"allreduce_dualroot", Variant{Allreduce: AllreduceDualRoot}, 256 << 10, stallAllreduce, [2]string{"c304966d6460433b", "68ea404b8fbd31dd"}},
	{"barrier", Variant{}, 0, func(tc *TComm, _ int, k func(error)) { tc.Barrier(k) }, [2]string{"fcfe7edb5aca77a9", "1e43a0944374921a"}},
	{"gather", Variant{}, 512, func(tc *TComm, n int, k func(error)) {
		tc.Gather(make([]byte, n), make([]byte, n*tc.Size()), 0, k)
	}, [2]string{"a523e72d938c3090", "68dcf3195e88b1d7"}},
	{"scatter", Variant{}, 512, func(tc *TComm, n int, k func(error)) {
		tc.Scatter(make([]byte, n*tc.Size()), make([]byte, n), 0, k)
	}, [2]string{"d251de2f36096b61", "b416bb72309df229"}},
	{"alltoall", Variant{}, 256, func(tc *TComm, n int, k func(error)) {
		tc.Alltoall(make([]byte, n*tc.Size()), make([]byte, n*tc.Size()), k)
	}, [2]string{"b733b2b1b8a59a22", "0ea2d1e99c7fc20c"}},
	{"scan", Variant{}, 1 << 10, func(tc *TComm, n int, k func(error)) {
		tc.Scan(make([]byte, n), make([]byte, n), Float64, Sum, k)
	}, [2]string{"1d2c1d68f5889dea", "a6c918c0e7a57e61"}},
	{"reducescatter", Variant{}, 256, func(tc *TComm, n int, k func(error)) {
		tc.ReduceScatter(make([]byte, n*tc.Size()), make([]byte, n), Float64, Sum, k)
	}, [2]string{"2bd854d3304bdd33", "87a3f4e77e808a0d"}},
	{"allgather", Variant{}, 512, func(tc *TComm, n int, k func(error)) {
		tc.Allgather(make([]byte, n), make([]byte, n*tc.Size()), k)
	}, [2]string{"de6fc655cf1e9bc6", "9bdb95704069b04d"}},
	{"allgather_direct", Variant{}, 32 << 10, func(tc *TComm, n int, k func(error)) {
		tc.Allgather(make([]byte, n), make([]byte, n*tc.Size()), k)
	}, [2]string{"a0cd74e4d24e6b8a", "d878623ed562ad14"}},
	{"alltoall_direct", Variant{}, 4 << 10, func(tc *TComm, n int, k func(error)) {
		tc.Alltoall(make([]byte, n*tc.Size()), make([]byte, n*tc.Size()), k)
	}, [2]string{"e5e2272752147b5c", "e65ec213ad8e46f9"}},
	{"bcast_pipe_treepub", Variant{TreeSMPBcst: true}, 16 << 10, stallBcast, [2]string{"e27d1141ea9328b5", "9b54751e18865365"}},
	{"bcast_pipe_barrierpub", Variant{BarrierSMPBcst: true}, 16 << 10, stallBcast, [2]string{"f3c9c63b24dbf159", "a485968992f1bba1"}},
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
// the report's hash.
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
				got := fmt.Sprintf("%x", sha256.Sum256([]byte(err.Error())))[:16]
				if got != p.hash[si] {
					t.Errorf("stall report hash = %s, pinned %s; the report:\n%v", got, p.hash[si], err)
				}
			})
		}
	}
}
