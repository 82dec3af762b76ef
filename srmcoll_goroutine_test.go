package srmcoll

import (
	"runtime"
	"testing"
)

// A Proc runs on a pooled coroutine, and the pool is stopped when the run's
// event loop returns: a completed Run leaves no goroutine behind, whether its
// processes were ranks, request helpers, or the victim of an injected crash.
func TestNoGoroutineOutlivesACompletedRun(t *testing.T) {
	body := func(c *Comm) {
		send, recv := Float64Bytes([]float64{float64(c.Rank() + 1)}), make([]byte, 8)
		if err := c.Bcast(make([]byte, 64), 3); err != nil {
			panic(err)
		}
		req := c.IAllreduce(send, recv, Float64, Sum) // a helper process per request
		c.Compute(10)
		if err := req.Wait(); err != nil {
			panic(err)
		}
		if got := Float64s(recv)[0]; got != 36 {
			panic(got)
		}
		if err := c.Barrier(); err != nil {
			panic(err)
		}
	}
	for _, impl := range impls() {
		cl := mustCluster(t, 2, 4)
		before := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			if _, err := cl.Run(impl, body); err != nil {
				t.Fatalf("%v run %d: %v", impl, i, err)
			}
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%v: %d goroutines before 50 runs, %d after", impl, before, after)
		}
	}

	before := runtime.NumGoroutine()
	cl := ftCluster(t, 2, 4, Crash{Rank: 5, At: 120})
	res, err := cl.Run(SRM, chaosLoopBody(6, 64, nil))
	if err != nil || len(res.Failures) != 1 {
		t.Fatalf("crash-plan run: %v, failures %+v", err, res)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("crash-plan run: %d goroutines before, %d after", before, after)
	}
}
