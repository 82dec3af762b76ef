package srmcoll

import (
	"errors"
	"strings"
	"testing"

	"srmcoll/internal/check"
)

// A rank keeps its one blocking collective in a frame of its own: the rules
// that follow from there being one.

// TestSecondBlockingCollectiveIsRefused: starting a collective on a rank that is
// still running one — on the same handle, or on its handle of another
// communicator — is a diagnosed error naming both and the rank, where it used
// to interleave the two protocols on the rank.
func TestSecondBlockingCollectiveIsRefused(t *testing.T) {
	for _, other := range []bool{false, true} {
		cl := mustCluster(t, 2, 2)
		_, err := cl.RunT(SRM, func(tc *TComm, done func()) {
			buf, recv := make([]byte, 64), make([]byte, 64)
			tc.Bcast(buf, 0, func(error) { done() })
			if tc.Rank() == 3 {
				// The broadcast cannot have reached rank 3 yet.
				second := tc
				if other {
					second = tc.Sub([]int{2, 3})
				}
				second.Allreduce(buf, recv, Float64, Sum, func(error) {})
			}
		})
		var re *RunError
		var ce *check.ReentryError
		if !errors.As(err, &re) || !errors.As(err, &ce) {
			t.Fatalf("other handle %v: err = %v, want a *RunError carrying a *check.ReentryError", other, err)
		}
		if re.Rank != 3 || re.Op != "allreduce" || ce.Rank != 3 || ce.Op != "allreduce" || ce.Running != "bcast" {
			t.Errorf("other handle %v: RunError{Rank: %d, Op: %q}, ReentryError%+v; want rank 3, allreduce started while bcast runs", other, re.Rank, re.Op, *ce)
		}
		for _, part := range []string{"rank 3", "allreduce", "bcast"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("other handle %v: error %q does not mention %q", other, err, part)
			}
		}
	}
}

// TestContinuationMayStartTheNextCollective: the frame is empty by the time
// the continuation runs, so a continuation that starts the handle's next
// collective there and then is legal — also when the operation completed
// inline and the continuation runs inside the call that started it, as every
// collective on a one-rank communicator does.
func TestContinuationMayStartTheNextCollective(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 2}} {
		cl := mustCluster(t, shape[0], shape[1])
		p := cl.Config().P()
		sums := make([]float64, p)
		chain := func(c *TComm, r int, done func()) {
			buf, recv := make([]byte, 64), make([]byte, 8)
			send := Float64Bytes([]float64{float64(r + 1)})
			fail := func(err error) {
				if err != nil {
					panic(err)
				}
			}
			c.Bcast(buf, c.Members()[0], func(err error) {
				fail(err)
				c.Allreduce(send, recv, Float64, Sum, func(err error) {
					fail(err)
					sums[r] = Float64s(recv)[0]
					c.Barrier(func(err error) {
						fail(err)
						c.Barrier(func(err error) {
							fail(err)
							done()
						})
					})
				})
			})
		}
		_, err := cl.RunT(SRM, func(tc *TComm, done func()) {
			// On the world, then on a communicator of the rank alone, whose
			// collectives complete within the call.
			chain(tc, tc.Rank(), func() { chain(tc.Sub([]int{tc.Rank()}), tc.Rank(), done) })
		})
		if err != nil {
			t.Fatalf("%dx%d: %v", shape[0], shape[1], err)
		}
		for r, got := range sums {
			if want := float64(r + 1); got != want {
				t.Errorf("%dx%d: rank %d ends with sum %v over itself, want %v", shape[0], shape[1], r, got, want)
			}
		}
	}
}
