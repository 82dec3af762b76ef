package srmcoll

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/check"
)

// reqOpCase drives one collective in blocking and non-blocking form over
// the same per-rank buffers. size is the per-rank block; buffers that span
// the whole communicator hold Size()*size bytes.
type reqOpCase struct {
	name string
	run  func(c *Comm, size int, nb bool) []byte // returns the output buffer to compare
}

// reqFill gives every rank a distinct, deterministic buffer content.
func reqFill(b []byte, rank int) {
	for i := range b {
		b[i] = byte(rank*31 + i*7 + 3)
	}
}

var reqOpCases = []reqOpCase{
	{"barrier", func(c *Comm, size int, nb bool) []byte {
		if nb {
			c.IBarrier().Wait()
		} else {
			c.Barrier()
		}
		return nil
	}},
	{"bcast", func(c *Comm, size int, nb bool) []byte {
		buf := make([]byte, size)
		if c.Rank() == 1 {
			reqFill(buf, 1)
		}
		if nb {
			c.IBcast(buf, 1).Wait()
		} else {
			c.Bcast(buf, 1)
		}
		return buf
	}},
	{"reduce", func(c *Comm, size int, nb bool) []byte {
		send := make([]byte, size)
		reqFill(send, c.Rank())
		var recv []byte
		if c.Rank() == 0 {
			recv = make([]byte, size)
		}
		if nb {
			c.IReduce(send, recv, Int64, Sum, 0).Wait()
		} else {
			c.Reduce(send, recv, Int64, Sum, 0)
		}
		return recv
	}},
	{"allreduce", func(c *Comm, size int, nb bool) []byte {
		send, recv := make([]byte, size), make([]byte, size)
		reqFill(send, c.Rank())
		if nb {
			c.IAllreduce(send, recv, Int64, Sum).Wait()
		} else {
			c.Allreduce(send, recv, Int64, Sum)
		}
		return recv
	}},
	{"gather", func(c *Comm, size int, nb bool) []byte {
		send := make([]byte, size)
		reqFill(send, c.Rank())
		var recv []byte
		if c.Rank() == 0 {
			recv = make([]byte, size*c.Size())
		}
		if nb {
			c.IGather(send, recv, 0).Wait()
		} else {
			c.Gather(send, recv, 0)
		}
		return recv
	}},
	{"scatter", func(c *Comm, size int, nb bool) []byte {
		var send []byte
		if c.Rank() == 0 {
			send = make([]byte, size*c.Size())
			reqFill(send, 0)
		}
		recv := make([]byte, size)
		if nb {
			c.IScatter(send, recv, 0).Wait()
		} else {
			c.Scatter(send, recv, 0)
		}
		return recv
	}},
	{"allgather", func(c *Comm, size int, nb bool) []byte {
		send, recv := make([]byte, size), make([]byte, size*c.Size())
		reqFill(send, c.Rank())
		if nb {
			c.IAllgather(send, recv).Wait()
		} else {
			c.Allgather(send, recv)
		}
		return recv
	}},
	{"alltoall", func(c *Comm, size int, nb bool) []byte {
		send, recv := make([]byte, size*c.Size()), make([]byte, size*c.Size())
		reqFill(send, c.Rank())
		if nb {
			c.IAlltoall(send, recv).Wait()
		} else {
			c.Alltoall(send, recv)
		}
		return recv
	}},
	{"reducescatter", func(c *Comm, size int, nb bool) []byte {
		send, recv := make([]byte, size*c.Size()), make([]byte, size)
		reqFill(send, c.Rank())
		if nb {
			c.IReduceScatter(send, recv, Int64, Sum).Wait()
		} else {
			c.ReduceScatter(send, recv, Int64, Sum)
		}
		return recv
	}},
	{"scan", func(c *Comm, size int, nb bool) []byte {
		send, recv := make([]byte, size), make([]byte, size)
		reqFill(send, c.Rank())
		if nb {
			c.IScan(send, recv, Int64, Sum).Wait()
		} else {
			c.Scan(send, recv, Int64, Sum)
		}
		return recv
	}},
	{"exscan", func(c *Comm, size int, nb bool) []byte {
		send, recv := make([]byte, size), make([]byte, size)
		reqFill(send, c.Rank())
		if nb {
			c.IExscan(send, recv, Int64, Sum).Wait()
		} else {
			c.Exscan(send, recv, Int64, Sum)
		}
		return recv
	}},
}

// TestNonblockingMatchesBlocking is the core non-blocking acceptance
// property: for every collective, issuing the I-variant and immediately
// waiting is indistinguishable from the blocking call — same output bytes
// on every rank, same virtual-clock Result.Time, same data-movement Stats.
func TestNonblockingMatchesBlocking(t *testing.T) {
	impls := []Impl{SRM, IBMMPI}
	sizes := []int{64, 1536, 24576}
	for _, impl := range impls {
		for _, oc := range reqOpCases {
			for _, size := range sizes {
				name := fmt.Sprintf("%v/%s/%d", impl, oc.name, size)
				t.Run(name, func(t *testing.T) {
					run := func(nb bool) (*Result, [][]byte) {
						cl := mustCluster(t, 2, 2)
						outs := make([][]byte, 4)
						res, err := cl.Run(impl, func(c *Comm) {
							outs[c.Rank()] = oc.run(c, size, nb)
						})
						if err != nil {
							t.Fatalf("nb=%v: %v", nb, err)
						}
						return res, outs
					}
					bres, bout := run(false)
					nres, nout := run(true)
					if bres.Time != nres.Time {
						t.Errorf("Time differs: blocking %.17g, non-blocking %.17g", bres.Time, nres.Time)
					}
					for r := range bres.PerRank {
						if bres.PerRank[r] != nres.PerRank[r] {
							t.Errorf("PerRank[%d] differs: %.17g vs %.17g", r, bres.PerRank[r], nres.PerRank[r])
						}
					}
					if bres.Stats != nres.Stats {
						t.Errorf("Stats differ:\nblocking %+v\nnon-blocking %+v", bres.Stats, nres.Stats)
					}
					for r := range bout {
						if !bytes.Equal(bout[r], nout[r]) {
							t.Errorf("rank %d output bytes differ", r)
						}
					}
				})
			}
		}
	}
}

// TestNonblockingOverlapsCompute pins the point of the API: an allreduce
// issued over a Compute phase finishes earlier than compute followed by a
// blocking allreduce, and the result is still correct.
func TestNonblockingOverlapsCompute(t *testing.T) {
	const size = 256 << 10 // large: the pipelined path with room to hide
	const work = 2000.0
	run := func(nb bool) (*Result, []byte) {
		cl := mustCluster(t, 2, 2)
		var out []byte
		res, err := cl.Run(SRM, func(c *Comm) {
			send, recv := make([]byte, size), make([]byte, size)
			reqFill(send, c.Rank())
			if nb {
				req := c.IAllreduce(send, recv, Int64, Sum)
				c.Compute(work)
				req.Wait()
			} else {
				c.Compute(work)
				c.Allreduce(send, recv, Int64, Sum)
			}
			if c.Rank() == 0 {
				out = recv
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	bres, bout := run(false)
	nres, nout := run(true)
	if !bytes.Equal(bout, nout) {
		t.Error("overlapped allreduce produced different bytes")
	}
	if nres.Time >= bres.Time {
		t.Errorf("no overlap: non-blocking %.3f >= blocking %.3f", nres.Time, bres.Time)
	}
}

// TestNonblockingIssueOrder checks the ordering guarantee with multiple
// outstanding requests: ops execute in issue order even when waited in
// reverse, and a blocking collective issued afterwards quiesces them.
func TestNonblockingIssueOrder(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	var got0 []byte
	res, err := cl.Run(SRM, func(c *Comm) {
		a, b := make([]byte, 512), make([]byte, 512)
		if c.Rank() == 0 {
			reqFill(a, 1)
			reqFill(b, 2)
		}
		r1 := c.IBcast(a, 0)
		r2 := c.IBcast(b, 0)
		c.Compute(10)
		r2.Wait()
		r1.Wait()
		// Quiesce path: a blocking barrier right after outstanding requests.
		r3 := c.IBcast(a, 1)
		c.Barrier()
		if !r3.Test() {
			t.Errorf("rank %d: request not complete after quiescing barrier", c.Rank())
		}
		if c.Rank() == 3 {
			got0 = append(append([]byte(nil), a...), b...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 1024)
	reqFill(want[:512], 1)
	reqFill(want[512:], 2)
	if !bytes.Equal(got0, want) {
		t.Error("out-of-order Wait corrupted broadcast payloads")
	}
	if res.Time <= 0 {
		t.Error("run reported no elapsed time")
	}
}

// TestNonblockingTestPolling drives a request to completion with a
// Test+Compute loop instead of Wait.
func TestNonblockingTestPolling(t *testing.T) {
	cl := mustCluster(t, 2, 1)
	res, err := cl.Run(SRM, func(c *Comm) {
		buf := make([]byte, 4096)
		if c.Rank() == 0 {
			reqFill(buf, 0)
		}
		req := c.IBcast(buf, 0)
		polls := 0
		for !req.Test() {
			c.Compute(1)
			polls++
			if polls > 1_000_000 {
				t.Errorf("rank %d: request never completed", c.Rank())
				break
			}
		}
		if !req.Test() {
			t.Errorf("rank %d: Test not idempotent after completion", c.Rank())
		}
		want := make([]byte, 4096)
		reqFill(want, 0)
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d: polled broadcast produced wrong bytes", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

// TestNonblockingBackpressure issues more requests than MaxOutstanding;
// the bound must block the issuer (not error) and every payload must
// arrive intact.
func TestNonblockingBackpressure(t *testing.T) {
	const n = MaxOutstanding + 8
	cl := mustCluster(t, 2, 1)
	_, err := cl.Run(SRM, func(c *Comm) {
		bufs := make([][]byte, n)
		reqs := make([]*Request, n)
		for i := range reqs {
			bufs[i] = make([]byte, 64)
			if c.Rank() == 0 {
				reqFill(bufs[i], i)
			}
			reqs[i] = c.IBcast(bufs[i], 0)
		}
		for _, r := range reqs {
			r.Wait()
		}
		for i, b := range bufs {
			want := make([]byte, 64)
			reqFill(want, i)
			if !bytes.Equal(b, want) {
				t.Errorf("rank %d: broadcast %d corrupted", c.Rank(), i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNonblockingDeterministic reruns a mixed non-blocking workload and
// requires identical times, stats and bytes, traced and untraced.
func TestNonblockingDeterministic(t *testing.T) {
	run := func(tracing bool) (*Result, []byte) {
		cl := mustCluster(t, 2, 2)
		cl.SetTracing(tracing)
		var out []byte
		res, err := cl.Run(SRM, func(c *Comm) {
			send, recv := make([]byte, 2048), make([]byte, 2048)
			reqFill(send, c.Rank())
			r1 := c.IAllreduce(send, recv, Int64, Sum)
			buf := make([]byte, 512)
			if c.Rank() == 2 {
				reqFill(buf, 9)
			}
			r2 := c.IBcast(buf, 2)
			c.Compute(100)
			r1.Wait()
			r2.Wait()
			if c.Rank() == 1 {
				out = append(append([]byte(nil), recv...), buf...)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	r1, o1 := run(false)
	r2, o2 := run(false)
	rt, ot := run(true)
	if pinOf(r1, o1) != pinOf(r2, o2) {
		t.Error("identical non-blocking runs differ")
	}
	if pinOf(rt, ot) != pinOf(r1, o1) {
		t.Error("tracing perturbed a non-blocking run")
	}
}

// TestSubCaching pins the canonical sub-communicator rule Sub gained with
// the request streams: same parent, same member list, same *Comm.
func TestSubCaching(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	_, err := cl.Run(SRM, func(c *Comm) {
		if c.Rank() >= 2 {
			return
		}
		a := c.Sub([]int{0, 1})
		b := c.Sub([]int{0, 1})
		if a != b {
			t.Errorf("rank %d: Sub returned distinct Comms for one member list", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRequestDoubleWaitIsRunError: a second Wait is a diagnosed RunError,
// not a hang or silent no-op.
func TestRequestDoubleWaitIsRunError(t *testing.T) {
	cl := mustCluster(t, 2, 1)
	_, err := cl.Run(SRM, func(c *Comm) {
		req := c.IBarrier()
		req.Wait()
		if c.Rank() == 1 {
			req.Wait()
		}
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("double Wait returned %v, want *RunError", err)
	}
	if re.Rank != 1 {
		t.Errorf("RunError names rank %d, want 1", re.Rank)
	}
	var qe *check.RequestError
	if !errors.As(err, &qe) {
		t.Fatalf("cause is %T, want *check.RequestError", re.Cause)
	}
}

// TestRequestDroppedIsRunError: returning from the body with an unwaited
// request is a diagnosed RunError naming the request.
func TestRequestDroppedIsRunError(t *testing.T) {
	cl := mustCluster(t, 2, 1)
	_, err := cl.Run(SRM, func(c *Comm) {
		c.IBarrier().Wait()
		c.IBarrier() // dropped
	})
	var qe *check.RequestError
	if !errors.As(err, &qe) {
		t.Fatalf("dropped request returned %v, want *check.RequestError cause", err)
	}
	if qe.Req != "ibarrier#1" {
		t.Errorf("error names request %q, want %q", qe.Req, "ibarrier#1")
	}
}

// TestRequestBufferOverlapIsRunError: issuing a request over a buffer still
// owned by an outstanding request is a diagnosed RunError.
func TestRequestBufferOverlapIsRunError(t *testing.T) {
	cl := mustCluster(t, 2, 1)
	_, err := cl.Run(SRM, func(c *Comm) {
		buf := make([]byte, 1024)
		r1 := c.IBcast(buf, 0)
		r2 := c.IBcast(buf[512:], 0) // overlaps r1's buffer
		r2.Wait()
		r1.Wait()
	})
	var qe *check.RequestError
	if !errors.As(err, &qe) {
		t.Fatalf("overlapping buffers returned %v, want *check.RequestError cause", err)
	}
	if qe.Op != "srmcoll.IBcast" {
		t.Errorf("error op %q, want srmcoll.IBcast", qe.Op)
	}
}

// TestRequestSizeErrorAttributed: a wrong-sized buffer inside a request is
// validated on the helper but attributed to the issuing rank.
func TestRequestSizeErrorAttributed(t *testing.T) {
	cl := mustCluster(t, 2, 2)
	_, err := cl.Run(SRM, func(c *Comm) {
		send := make([]byte, 64)
		var recv []byte
		if c.Rank() == 0 {
			recv = make([]byte, 64) // want 64*Size()
		}
		c.IGather(send, recv, 0).Wait()
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("bad gather returned %v, want *RunError", err)
	}
	var se *check.SizeError
	if !errors.As(err, &se) {
		t.Fatalf("cause is %T, want *check.SizeError", re.Cause)
	}
	if re.Rank != 0 {
		t.Errorf("RunError names rank %d, want 0 (the issuing rank)", re.Rank)
	}
}

// TestRequestStreamHoldsBoundedHeap: a body that issues and waits for requests
// for as long as it runs holds next to nothing for those it has waited for. A
// finished helper leaves the registry of helpers, and its task record carves a
// later helper (sim.Env.SpawnTaskK); nothing keeps a list of every helper a
// rank ran; and a request lets go of its predecessor once it starts, so no
// chain keeps the records of a stream either. Measured as the live heap, after
// a collection, once every rank has made N or 2N IAllreduce+Wait calls, per
// extra request, 8 nodes of 8; it reads under 10 B. Holding each request's
// record alone (about 300 B) fails the bound; before helpers were reused and
// dropped from the run's books it read 588 B.
func TestRequestStreamHoldsBoundedHeap(t *testing.T) {
	const nodes, tpn, n = 8, 8, 200
	const ranks = nodes * tpn
	cl := mustCluster(t, nodes, tpn)
	send, recv := make([]byte, 8*ranks), make([]byte, 8*ranks)
	held := func(calls int) int64 {
		bufpool.DrainReserve() // the run's slabs are then its own, and counted
		var ms runtime.MemStats
		_, err := cl.Run(SRM, func(c *Comm) {
			s, r := send[8*c.Rank():][:8], recv[8*c.Rank():][:8]
			for i := 0; i < calls; i++ {
				if err := c.IAllreduce(s, r, Int64, Sum).Wait(); err != nil {
					panic(err)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(ms.HeapAlloc)
	}
	defer bufpool.DrainReserve()
	held(n) // warm: lazy tables and the test's own first allocations
	per := float64(held(2*n)-held(n)) / (n * ranks)
	t.Logf("%.0f B of live heap per extra request", per)
	if per > 100 {
		t.Errorf("a long request stream holds %.0f B per request, want at most 100", per)
	}
}
