package srmcoll

// Non-blocking collectives on the Task engine. The ordering and misuse
// contracts are those request.go documents — one request stream per rank,
// issue-order execution and completion, MaxOutstanding backpressure,
// buffer ownership until Wait — implemented over helper tasks instead of
// helper goroutines. TRequest wraps the same Request record, so the stream
// bookkeeping (live set, tail chaining, overlap diagnosis, checkDrained)
// is shared verbatim between the engines and the timings stay
// bit-identical.

import (
	"fmt"
	"strings"

	"srmcoll/internal/check"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// TRequest is the handle of a non-blocking collective issued with one of
// TComm's I-methods; see Request for the completion contract.
type TRequest struct {
	req *Request
	tc  *TComm
}

// String identifies the request in errors and stall reports.
func (r *TRequest) String() string { return r.req.String() }

// Err returns the request's completion error; see Request.Err.
func (r *TRequest) Err() error { return r.req.Err() }

// issueT is issue for the Task engine: same validation, backpressure, and
// stream chaining, with the helper spawned as a task. The continuation
// receives the handle once the request is admitted (immediately unless the
// MaxOutstanding bound blocks the issuing rank).
func (tc *TComm) issueT(op string, a collArgs, bufs []check.Buf, k func(*TRequest)) {
	c := tc.c
	name, bytes := strings.ToLower(op), a.bytes()
	st := &c.rs.streams[c.rank]
	for _, nb := range bufs {
		for _, o := range st.live {
			for _, ob := range o.bufs {
				if nb.Overlaps(ob) {
					panic(&check.RequestError{
						Op: "srmcoll." + op, Rank: c.rank, Req: o.String(),
						Reason: fmt.Sprintf("%s buffer overlaps the outstanding request's %s buffer; buffers are owned by a request until Wait",
							nb.Label, ob.Label),
					})
				}
			}
		}
	}
	// Backpressure re-checks the whole live set after every wake, exactly
	// like issue's re-loop: the oldest request completing may not be enough
	// if Waits consumed requests meanwhile.
	var admit func()
	admit = func() {
		inflight, oldest := 0, (*Request)(nil)
		for _, o := range st.live {
			if !o.done.Done() {
				if oldest == nil {
					oldest = o
				}
				inflight++
			}
		}
		if inflight >= MaxOutstanding {
			oldest.done.WaitT(tc.t, admit)
			return
		}
		req := &Request{c: c, name: name, op: op, seq: st.seq, bytes: bytes, group: -1, bufs: bufs}
		st.seq++
		req.done = c.rs.env.NewEvent().NamedBy((*reqLabel)(req))
		if c.rec.failed > 0 {
			// Already known broken: complete immediately with the failure;
			// the stream tail is left unchanged (see issue).
			req.err = c.failedError(name)
			req.done.Trigger()
			st.live = append(st.live, req)
			k(&TRequest{req: req, tc: tc})
			return
		}
		if c.tr != nil {
			req.group = c.tr.NewGroup()
			iid := c.tr.Begin(tc.t.Track(), trace.ClassReqIssue, "issue:"+name, bytes)
			c.tr.Link(iid, req.group)
			c.tr.End(iid)
		}
		prev := st.tail
		ht := c.rs.env.SpawnTask(st.helperPrefix(c.rank), req.seq, func(ht *sim.Task) {
			start := func() {
				oid := -1
				if c.tr != nil {
					// Helper tracks are allocated when the helper starts its
					// operation (completion order), matching issue.
					track := c.rs.nextTrack
					c.rs.nextTrack++
					ht.SetTrack(track)
					c.tr.NameTrack(track, ht.Name())
					oid = c.tr.Begin(track, trace.ClassReqOp, name, bytes)
					c.tr.Link(oid, req.group)
				}
				// The request's own frame: a rank has many requests in flight,
				// the handle's frame serves its one blocking collective.
				fr := &tcall{collArgs: a, tc: tc, t: ht, name: name, span: oid}
				fr.finFn = fr.fin
				fr.k = func(err error) {
					req.err = err
					req.done.Trigger()
				}
				fr.run()
			}
			if prev != nil {
				prev.WaitT(ht, start)
				return
			}
			start()
		})
		c.rs.helperRank[ht] = c.rank
		st.helpers = append(st.helpers, ht)
		st.tail = req.done
		st.live = append(st.live, req)
		k(&TRequest{req: req, tc: tc})
	}
	admit()
}

// Wait completes the request and releases its buffers; see Request.Wait.
// The continuation receives nil or the *RankFailedError the operation died
// with.
func (r *TRequest) Wait(k func(error)) {
	if r.tc.t == nil {
		k(r.req.Wait())
		return
	}
	c := r.req.c
	if r.req.consumed {
		panic(&check.RequestError{
			Op: "srmcoll.Request.Wait", Rank: c.rank, Req: r.req.String(),
			Reason: "request already completed (double Wait, or Wait after Test returned true)",
		})
	}
	fin := func() {
		r.req.consume()
		k(r.req.err)
	}
	if c.tr != nil {
		wid := c.tr.Begin(r.tc.t.Track(), trace.ClassReqWait, "wait:"+r.req.name, r.req.bytes)
		c.tr.Link(wid, r.req.group)
		r.req.done.WaitT(r.tc.t, func() {
			c.tr.End(wid)
			fin()
		})
		return
	}
	r.req.done.WaitT(r.tc.t, fin)
}

// Test polls the request after yielding once; see Request.Test. The
// continuation reports whether the operation has completed (consuming the
// request if so).
func (r *TRequest) Test(k func(bool)) {
	if r.tc.t == nil {
		k(r.req.Test())
		return
	}
	if r.req.consumed {
		k(true)
		return
	}
	r.tc.t.YieldThen(func() {
		if !r.req.done.Done() {
			k(false)
			return
		}
		r.req.consume()
		k(true)
	})
}

// IBarrier starts a non-blocking barrier.
func (tc *TComm) IBarrier(k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IBarrier(), tc: tc})
		return
	}
	tc.issueT("IBarrier", collArgs{kind: collBarrier}, nil, k)
}

// IBcast starts a non-blocking broadcast of buf from root; see Bcast.
func (tc *TComm) IBcast(buf []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IBcast(buf, root), tc: tc})
		return
	}
	tc.issueT("IBcast", collArgs{kind: collBcast, send: buf, root: root},
		[]check.Buf{check.BufOf("buf", buf)}, k)
}

// IReduce starts a non-blocking reduction into recv at root; see Reduce.
func (tc *TComm) IReduce(send, recv []byte, dt Datatype, op Op, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IReduce(send, recv, dt, op, root), tc: tc})
		return
	}
	tc.issueT("IReduce", collArgs{kind: collReduce, send: send, recv: recv, dt: dt, op: op, root: root},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}

// IAllreduce starts a non-blocking allreduce; see Allreduce.
func (tc *TComm) IAllreduce(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAllreduce(send, recv, dt, op), tc: tc})
		return
	}
	tc.issueT("IAllreduce", collArgs{kind: collAllreduce, send: send, recv: recv, dt: dt, op: op},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}

// IGather starts a non-blocking gather into recv at root; see Gather.
func (tc *TComm) IGather(send, recv []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IGather(send, recv, root), tc: tc})
		return
	}
	tc.issueT("IGather", collArgs{kind: collGather, send: send, recv: recv, root: root},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}

// IScatter starts a non-blocking scatter from root's send; see Scatter.
func (tc *TComm) IScatter(send, recv []byte, root int, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IScatter(send, recv, root), tc: tc})
		return
	}
	tc.issueT("IScatter", collArgs{kind: collScatter, send: send, recv: recv, root: root},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}

// IAllgather starts a non-blocking allgather; see Allgather.
func (tc *TComm) IAllgather(send, recv []byte, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAllgather(send, recv), tc: tc})
		return
	}
	tc.issueT("IAllgather", collArgs{kind: collAllgather, send: send, recv: recv},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}

// IAlltoall starts a non-blocking all-to-all exchange; see Alltoall.
func (tc *TComm) IAlltoall(send, recv []byte, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IAlltoall(send, recv), tc: tc})
		return
	}
	tc.issueT("IAlltoall", collArgs{kind: collAlltoall, send: send, recv: recv},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}

// IReduceScatter starts a non-blocking reduce-scatter; see ReduceScatter.
func (tc *TComm) IReduceScatter(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IReduceScatter(send, recv, dt, op), tc: tc})
		return
	}
	tc.issueT("IReduceScatter", collArgs{kind: collReduceScatter, send: send, recv: recv, dt: dt, op: op},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}

// IScan starts a non-blocking inclusive prefix reduction; see Scan.
func (tc *TComm) IScan(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IScan(send, recv, dt, op), tc: tc})
		return
	}
	tc.issueT("IScan", collArgs{kind: collScan, send: send, recv: recv, dt: dt, op: op},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}

// IExscan starts a non-blocking exclusive prefix reduction; see Exscan.
func (tc *TComm) IExscan(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	if tc.t == nil {
		k(&TRequest{req: tc.c.IExscan(send, recv, dt, op), tc: tc})
		return
	}
	tc.issueT("IExscan", collArgs{kind: collExscan, send: send, recv: recv, dt: dt, op: op},
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)}, k)
}
