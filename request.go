package srmcoll

// Non-blocking collectives. Each I-variant (IBcast, IAllreduce, ...) issues
// the operation and returns immediately with a *Request; the caller may run
// Compute and complete the operation later with Wait or Test. The
// operation itself executes on a helper sim.Proc — the rank's
// communication service thread, mirroring the single LAPI service thread
// per task of the paper's §2.3 — synchronized with the issuing rank
// through sim events.
//
// Ordering: each rank owns one request stream. Requests execute and
// complete in issue order (helper N+1 first waits for helper N), so the
// SPMD call-matching rules of the blocking API carry over unchanged: ranks
// must agree on the sequence of collectives per communicator, counting
// blocking and non-blocking calls alike. A blocking collective first
// drains the rank's outstanding requests (see Comm.quiesce). Because the
// per-rank service thread serializes that rank's operations, two requests
// from one rank never overlap each other — they overlap the caller's
// Compute and other ranks' work, which is where the §2.3 asynchrony wins.
//
// Timing: issuing, parking and waking cost zero virtual time, and the
// helpers run their operation slices in the same relative order the ranks
// would have inline, so an issue followed immediately by Wait is
// bit-identical — bytes, Result.Time, Stats — to the blocking call.
//
// Misuse diagnostics (wired through internal/check, recovered into
// *RunError at the Run boundary): Wait on an already-completed request,
// a request never completed when the Run body returns, and issuing a
// request whose buffers overlap a buffer owned by an outstanding request.

import (
	"fmt"
	"strconv"
	"strings"

	"srmcoll/internal/check"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// MaxOutstanding bounds the number of incomplete non-blocking requests one
// rank may have in flight. Issuing beyond the bound blocks the caller
// until the oldest outstanding request completes (backpressure, not an
// error); completed-but-unwaited requests do not count against the bound.
const MaxOutstanding = 64

// Request is the handle of a non-blocking collective issued with one of
// Comm's I-methods. Exactly one Wait (or one Test returning true) must
// complete it, from the issuing rank, before the Run body returns. The
// buffers passed to the operation are owned by it until then: reading or
// writing them is undefined, and issuing another request over them is a
// diagnosed error.
type Request struct {
	c        *Comm
	name     string // span name, e.g. "ibcast"
	op       string // public name, e.g. "IBcast"
	seq      int    // per-rank issue index
	bytes    int64
	done     *sim.Event
	group    int // trace group linking issue/op/wait spans, -1 untraced
	bufs     []check.Buf
	consumed bool
	err      error // fault-tolerance outcome, set before done triggers
}

// String identifies the request in errors and stall reports.
func (r *Request) String() string { return fmt.Sprintf("%s#%d", r.name, r.seq) }

// reqLabel is a Request as the label of its completion event: the text a stall
// report prints for a rank waiting on it, formatted only there.
type reqLabel Request

func (l *reqLabel) String() string {
	return fmt.Sprintf("request %s on rank %d", (*Request)(l), l.c.rank)
}

// reqStream is one rank's request bookkeeping: the completion event of the
// most recently issued request (the chain helpers serialize on), the
// issued-but-not-yet-completed requests in issue order, and the helpers that
// ran them.
type reqStream struct {
	seq     int
	tail    *sim.Event
	live    []*Request
	prefix  string      // "rank<r>.req", what the rank's helpers are named by
	helpers []*sim.Task // the rank's helpers (fault tolerance kills them with the rank)
}

// helperPrefix returns the name prefix of rank's request helpers.
func (st *reqStream) helperPrefix(rank int) string {
	if st.prefix == "" {
		st.prefix = "rank" + strconv.Itoa(rank) + ".req"
	}
	return st.prefix
}

// runState is the per-Run bookkeeping shared by every Comm of the run:
// request streams, which rank each task acts for, trace track allocation
// for helpers, the record of every communicator, and the handle cache that
// makes Comm.Sub return one canonical Comm per (parent, member list) so
// request ordering is well defined per communicator.
type runState struct {
	env        *sim.Env
	streams    []reqStream           // by rank, one slab
	tasks      []*sim.Task           // by rank: the rank's task (a Run body's process's own)
	helperRank map[*sim.Task]int     // request helper -> issuing rank
	nextTrack  int                   // next helper trace track (ranks use 0..P-1, core helpers P..2P-1)
	comms      []*commRec            // every communicator of the run, the world first
	byHash     map[uint64][]*commRec // those Sub made, by ranks.Hash of their member lists
	subs       map[subKey]*Comm
	ft         *ftState // nil unless the cluster enabled fault tolerance
}

type subKey struct {
	parent *Comm
	rec    *commRec
}

func newRunState(env *sim.Env, p int) *runState {
	return &runState{
		env:        env,
		streams:    make([]reqStream, p),
		tasks:      make([]*sim.Task, p),
		helperRank: make(map[*sim.Task]int),
		nextTrack:  2 * p,
		byHash:     make(map[uint64][]*commRec),
		subs:       make(map[subKey]*Comm),
	}
}

// rankOf resolves a task (a sim.ProcFailure's Actor) to the rank it acts for,
// and whether as one of the rank's request helpers: a helper is in the
// registry, a rank's own is found at its spawn index. Anything else is -1.
func (rs *runState) rankOf(t *sim.Task) (rank int, helper bool) {
	if r, ok := rs.helperRank[t]; ok {
		return r, true
	}
	if n := t.Num(); n >= 0 && n < len(rs.tasks) && rs.tasks[n] == t {
		return n, false
	}
	return -1, false
}

// quiesce orders a blocking collective after every outstanding request of
// this rank: the blocking operation's protocol slices must not interleave
// with a still-running request on the same rank. Costs a nil check and an
// already-done event test when no requests are in flight, so the blocking
// paths' timing is untouched.
func (c *Comm) quiesce() {
	if c.rs == nil {
		return
	}
	if st := &c.rs.streams[c.rank]; st.tail != nil && !st.tail.Done() {
		c.p.Wait(st.tail)
	}
}

// issue starts a non-blocking operation: it validates buffer ownership,
// applies the outstanding-request bound, chains a helper process after the
// rank's previous request, and returns the handle.
func (c *Comm) issue(op string, bytes int64, bufs []check.Buf, run func(hp *sim.Proc)) *Request {
	name := strings.ToLower(op)
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
	for {
		inflight, oldest := 0, (*Request)(nil)
		for _, o := range st.live {
			if !o.done.Done() {
				if oldest == nil {
					oldest = o
				}
				inflight++
			}
		}
		if inflight < MaxOutstanding {
			break
		}
		c.p.Wait(oldest.done)
	}
	req := &Request{c: c, name: name, op: op, seq: st.seq, bytes: bytes, group: -1, bufs: bufs}
	st.seq++
	req.done = c.rs.env.NewEvent().NamedBy((*reqLabel)(req))
	if c.rec.failed > 0 {
		// The communicator is already known broken: complete the request
		// immediately with the failure instead of spawning a helper that
		// would error on registration anyway. The stream tail is left
		// unchanged — there is nothing to serialize after.
		req.err = c.failedError(name)
		req.done.Trigger()
		st.live = append(st.live, req)
		return req
	}
	if c.tr != nil {
		req.group = c.tr.NewGroup()
		iid := c.tr.Begin(c.p.Track(), trace.ClassReqIssue, "issue:"+name, bytes)
		c.tr.Link(iid, req.group)
		c.tr.End(iid)
	}
	prev := st.tail
	hp := c.rs.env.SpawnIndexed(st.helperPrefix(c.rank), req.seq, func(hp *sim.Proc) {
		if prev != nil {
			hp.Wait(prev)
		}
		oid := -1
		if c.tr != nil {
			track := c.rs.nextTrack
			c.rs.nextTrack++
			hp.SetTrack(track)
			c.tr.NameTrack(track, hp.Name())
			oid = c.tr.Begin(track, trace.ClassReqOp, name, bytes)
			c.tr.Link(oid, req.group)
		}
		req.err = c.ftRun(name, hp, func() { run(hp) })
		c.tr.End(oid)
		req.done.Trigger()
	})
	c.rs.helperRank[&hp.Task] = c.rank
	st.helpers = append(st.helpers, &hp.Task)
	st.tail = req.done
	st.live = append(st.live, req)
	return req
}

// consume marks the request completed and releases its buffers.
func (r *Request) consume() {
	st := &r.c.rs.streams[r.c.rank]
	for i, o := range st.live {
		if o == r {
			st.live = append(st.live[:i], st.live[i+1:]...)
			break
		}
	}
	r.consumed = true
}

// Wait blocks the issuing rank until the operation has completed, then
// releases the request's buffers back to the caller. It returns nil on
// success or the *RankFailedError the operation died with when a member of
// the communicator was declared failed mid-flight. Waiting on a request
// that already completed (a second Wait, or Wait after Test returned true)
// is a diagnosed error.
func (r *Request) Wait() error {
	c := r.c
	if r.consumed {
		panic(&check.RequestError{
			Op: "srmcoll.Request.Wait", Rank: c.rank, Req: r.String(),
			Reason: "request already completed (double Wait, or Wait after Test returned true)",
		})
	}
	if c.tr != nil {
		wid := c.tr.Begin(c.p.Track(), trace.ClassReqWait, "wait:"+r.name, r.bytes)
		c.tr.Link(wid, r.group)
		c.p.Wait(r.done)
		c.tr.End(wid)
	} else {
		c.p.Wait(r.done)
	}
	r.consume()
	return r.err
}

// Err returns the request's completion error: nil while in flight or on
// success, the *RankFailedError otherwise. Valid any time; authoritative
// once the request completed (Wait returned or Test reported true).
func (r *Request) Err() error { return r.err }

// Test polls the request: it yields the rank's time slice once and reports
// whether the operation has completed, consuming the request if so (a later
// Wait would be an error; further Tests keep returning true). A Test loop
// must interleave Compute — virtual time only advances when the rank
// spends it, so a bare spin would poll the same instant forever.
func (r *Request) Test() bool {
	if r.consumed {
		return true
	}
	r.c.p.Yield()
	if !r.done.Done() {
		return false
	}
	r.consume()
	return true
}

// checkDrained panics (diagnosed at the Run boundary) if the rank's body
// returned with requests never completed — a dropped request would
// otherwise leave helper processes running past the body and, on other
// ranks, peers blocked forever.
func (c *Comm) checkDrained() {
	st := &c.rs.streams[c.rank]
	if len(st.live) == 0 {
		return
	}
	panic(&check.RequestError{
		Op: "srmcoll.Run", Rank: c.rank, Req: st.live[0].String(),
		Reason: fmt.Sprintf("%d request(s) dropped: the Run body returned without Wait", len(st.live)),
	})
}

// IBarrier starts a non-blocking barrier.
func (c *Comm) IBarrier() *Request {
	return c.issue("IBarrier", 0, nil, func(hp *sim.Proc) {
		c.rec.coll.Barrier(hp, c.rank)
	})
}

// IBcast starts a non-blocking broadcast of buf from root; see Bcast.
func (c *Comm) IBcast(buf []byte, root int) *Request {
	return c.issue("IBcast", int64(len(buf)), []check.Buf{check.BufOf("buf", buf)},
		func(hp *sim.Proc) { c.rec.coll.Bcast(hp, c.rank, buf, root) })
}

// IReduce starts a non-blocking reduction into recv at root; see Reduce.
func (c *Comm) IReduce(send, recv []byte, dt Datatype, op Op, root int) *Request {
	return c.issue("IReduce", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.Reduce(hp, c.rank, send, recv, dt, op, root) })
}

// IAllreduce starts a non-blocking allreduce; see Allreduce.
func (c *Comm) IAllreduce(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issue("IAllreduce", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.Allreduce(hp, c.rank, send, recv, dt, op) })
}

// IGather starts a non-blocking gather into recv at root; see Gather.
func (c *Comm) IGather(send, recv []byte, root int) *Request {
	return c.issue("IGather", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.Gather(hp, c.rank, send, recv, root) })
}

// IScatter starts a non-blocking scatter from root's send; see Scatter.
func (c *Comm) IScatter(send, recv []byte, root int) *Request {
	return c.issue("IScatter", int64(len(recv)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.Scatter(hp, c.rank, send, recv, root) })
}

// IAllgather starts a non-blocking allgather; see Allgather.
func (c *Comm) IAllgather(send, recv []byte) *Request {
	return c.issue("IAllgather", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.Allgather(hp, c.rank, send, recv) })
}

// IAlltoall starts a non-blocking all-to-all exchange; see Alltoall.
func (c *Comm) IAlltoall(send, recv []byte) *Request {
	return c.issue("IAlltoall", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.Alltoall(hp, c.rank, send, recv) })
}

// IReduceScatter starts a non-blocking reduce-scatter; see ReduceScatter.
func (c *Comm) IReduceScatter(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issue("IReduceScatter", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.ReduceScatter(hp, c.rank, send, recv, dt, op) })
}

// IScan starts a non-blocking inclusive prefix reduction; see Scan.
func (c *Comm) IScan(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issue("IScan", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.Scan(hp, c.rank, send, recv, dt, op) })
}

// IExscan starts a non-blocking exclusive prefix reduction; see Exscan.
func (c *Comm) IExscan(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issue("IExscan", int64(len(send)),
		[]check.Buf{check.BufOf("send", send), check.BufOf("recv", recv)},
		func(hp *sim.Proc) { c.rec.coll.Exscan(hp, c.rank, send, recv, dt, op) })
}
