package srmcoll

// Non-blocking collectives. Each I-variant (IBcast, IAllreduce, ...) issues
// the operation and returns immediately with a request handle; the caller may
// run Compute and complete the operation later with Wait or Test. The
// operation itself executes on a helper actor — the rank's communication
// service thread, mirroring the single LAPI service thread per task of the
// paper's §2.3 — synchronized with the issuing rank through sim events.
//
// Ordering: each rank owns one request stream. Requests execute and
// complete in issue order (helper N+1 first waits for helper N), so the
// SPMD call-matching rules of the blocking API carry over unchanged: ranks
// must agree on the sequence of collectives per communicator, counting
// blocking and non-blocking calls alike. A blocking collective first
// drains the rank's outstanding requests (handle.outstanding). Because the
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
//
// All of it is written once, in continuation form (tcomm.go): the overlap
// check, the MaxOutstanding admission, the chaining of helpers on the stream
// tail and the spans in issue; completion, the double-Wait diagnosis and Test's
// yield in wait, test and consume. The methods of Comm and Request below pass a
// continuation with nothing to do and return what the record holds; TComm's
// and TRequest's (trequest.go) pass the caller's. A helper has a stack only
// when the implementation is blocking only: an SRM helper is a plain task
// under either form of body.

import (
	"fmt"
	"slices"
	"strconv"

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
type Request struct{ request }

// request is one non-blocking collective from issue to completion, the record
// Request and TRequest are two sets of methods over, frame included.
type request struct {
	h        handle     // the issuing rank's
	seq      int        // per-rank issue index
	done     sim.Event  // triggered once the operation has ended and call.err says how
	prev     *sim.Event // the done of the request the helper runs after, if any
	group    int        // trace group linking issue/op/wait spans, -1 untraced
	consumed bool
	call     frame // the operation; its arguments name the buffers the request owns

	// A wait in progress: its span, and what it tells once the request is done.
	waitSpan int
	waitK    func(error)
}

// String identifies the request in errors and stall reports.
func (r *request) String() string {
	return collNames[r.call.kind].req + "#" + strconv.Itoa(r.seq)
}

// reqLabel is a request as the label of its completion event: the text a stall
// report prints for a rank waiting on it, formatted only there.
type reqLabel request

func (l *reqLabel) String() string {
	return fmt.Sprintf("request %s on rank %d", (*request)(l), l.h.rank)
}

// reqStream is one rank's request bookkeeping: the completion event of the
// most recently issued request (the chain helpers serialize on), the
// issued-but-not-yet-completed requests in issue order, and the helpers that
// ran them.
type reqStream struct {
	seq     int
	tail    *sim.Event
	live    []*request
	issued  *TRequest   // the request admitted last, left for a blocking shim to return
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

// runState is the per-Run bookkeeping shared by every Comm of the run: the
// record of every rank, which rank each request helper acts for, trace track
// allocation for helpers, the record of every communicator, and the handle
// cache that makes Comm.Sub return one canonical Comm per (parent, member
// list).
type runState struct {
	env        *sim.Env
	ranks      []rankRec             // by rank, one slab
	helperRank map[*sim.Task]int     // request helper -> issuing rank
	nextTrack  int                   // next helper trace track (ranks use 0..P-1, core helpers P..2P-1)
	comms      []*commRec            // every communicator of the run, the world first
	byHash     map[uint64][]*commRec // those Sub made, by ranks.Hash of their member lists
	subs       map[subKey]*Comm
	handles    []Comm   // what subs points into: the rest of a block of one handle a rank, theirs to keep
	ft         *ftState // nil unless the cluster enabled fault tolerance
}

type subKey struct {
	parent handle
	rec    *commRec
}

func newRunState(env *sim.Env, p int) *runState {
	return &runState{
		env:        env,
		ranks:      make([]rankRec, p),
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
	if n := t.Num(); n >= 0 && n < len(rs.ranks) && rs.ranks[n].t == t {
		return n, false
	}
	return -1, false
}

// issue starts a non-blocking operation: it validates buffer ownership,
// applies the outstanding-request bound, chains a helper after the rank's
// previous request, and passes the handle to k — at once unless the bound
// blocks the issuing rank.
func (h handle) issue(a collArgs, k func(*TRequest)) {
	for _, nb := range a.bufs() {
		for _, o := range h.stream.live {
			for _, ob := range o.call.bufs() {
				if nb.Overlaps(ob) {
					panic(&check.RequestError{
						Op: "srmcoll." + collNames[a.kind].public, Rank: h.rank, Req: o.String(),
						Reason: fmt.Sprintf("%s buffer overlaps the outstanding request's %s buffer; buffers are owned by a request until Wait",
							nb.Label, ob.Label),
					})
				}
			}
		}
	}
	h.admit(a, k)
}

// admit is issue once the buffers are vetted. Backpressure re-checks the live
// set after every wake: Waits may have consumed requests meanwhile.
func (h handle) admit(a collArgs, k func(*TRequest)) {
	st, names := &h.stream, &collNames[a.kind]
	inflight, oldest := 0, (*request)(nil)
	for _, o := range st.live {
		if !o.done.Done() {
			if oldest == nil {
				oldest = o
			}
			inflight++
		}
	}
	if inflight >= MaxOutstanding {
		h.readmit(oldest, a, k)
		return
	}
	st.issued = &TRequest{request{h: h, seq: st.seq, call: frame{collArgs: a, h: h, name: names.req, span: -1}}}
	r := &st.issued.request
	st.seq++
	r.done.Init(h.rs.env)
	r.done.NamedBy((*reqLabel)(r))
	st.live = append(st.live, r)
	if h.rec.failed > 0 {
		// The communicator is already known broken: complete the request
		// immediately with the failure instead of spawning a helper that
		// would error on registration anyway. The stream tail is left
		// unchanged — there is nothing to serialize after.
		r.call.err = h.failedError(names.req)
		r.done.Trigger()
		k(st.issued)
		return
	}
	r.group = h.tr.NewGroup()
	iid := h.tr.Begin(h.t.Track(), trace.ClassReqIssue, names.issue, a.bytes())
	h.tr.Link(iid, r.group)
	h.tr.End(iid)
	r.prev = st.tail
	if h.rec.coll.srm != nil {
		r.call.actor = actor{t: h.rs.env.SpawnTaskK(st.helperPrefix(h.rank), r.seq, (*reqStart)(r))}
	} else {
		p := h.rs.env.SpawnBody(st.helperPrefix(h.rank), r.seq, (*reqBody)(r))
		r.call.actor = actor{t: &p.Task, p: p}
	}
	h.rs.helperRank[r.call.t] = h.rank
	st.helpers = append(st.helpers, r.call.t)
	st.tail = &r.done
	k(st.issued)
}

// readmit admits a once oldest has completed. Its closure is made here, so
// that only a request the bound holds back pays for it.
func (h handle) readmit(oldest *request, a collArgs, k func(*TRequest)) {
	h.wait(&oldest.done, sim.Func(func() { h.admit(a, k) }))
}

// reqStart and reqBody are the request as its helper's first step, as a task
// and as a process; the helper is the request's actor from its spawn.
type (
	reqStart request
	reqBody  request
)

func (s *reqStart) Resume()      { (*request)(s).start() }
func (b *reqBody) Run(*sim.Proc) { (*request)(b).start() }

// start runs the operation on the helper once the rank's previous request ended.
func (r *request) start() {
	if r.prev != nil && !r.prev.Done() {
		r.call.wait(r.prev, (*reqOpen)(r))
		return
	}
	r.open()
}

// reqOpen is the request as the continuation of the wait for its predecessor.
type reqOpen request

func (o *reqOpen) Resume() { (*request)(o).open() }

// open opens the operation's span on a track of the helper's own — handed out
// as helpers start their operations, in completion order — and runs it.
func (r *request) open() {
	f, h := &r.call, r.h
	if tr := h.tr; tr != nil {
		track := h.rs.nextTrack
		h.rs.nextTrack++
		f.t.SetTrack(track)
		tr.NameTrack(track, f.t.Name())
		f.span = tr.Begin(track, trace.ClassReqOp, f.name, f.bytes())
		tr.Link(f.span, r.group)
	}
	f.k = r
	f.run()
}

// ended is the continuation of the request's operation.
func (r *request) ended(error) { r.done.Trigger() }

// consume marks the request completed and releases its buffers.
func (r *request) consume() {
	st := &r.h.stream
	if i := slices.Index(st.live, r); i >= 0 {
		st.live = slices.Delete(st.live, i, i+1)
	}
	r.consumed = true
}

// wait completes the request once its operation has ended, and tells k how.
func (r *request) wait(k func(error)) {
	h := r.h
	if r.consumed {
		panic(&check.RequestError{
			Op: "srmcoll.Request.Wait", Rank: h.rank, Req: r.String(),
			Reason: "request already completed (double Wait, or Wait after Test returned true)",
		})
	}
	r.waitSpan = h.tr.Begin(h.t.Track(), trace.ClassReqWait, collNames[r.call.kind].wait, r.call.bytes())
	h.tr.Link(r.waitSpan, r.group)
	r.waitK = k
	h.wait(&r.done, (*reqWaited)(r))
}

// reqWaited is the request as the continuation of a wait for it.
type reqWaited request

func (w *reqWaited) Resume() {
	r := (*request)(w)
	k := r.waitK
	r.waitK = nil
	r.h.tr.End(r.waitSpan)
	r.consume()
	k(r.call.err)
}

// test yields once and tells k whether the operation has ended, consuming the
// request if so.
func (r *request) test(k func(bool)) {
	if r.consumed {
		k(true)
		return
	}
	r.h.yield(sim.Func(func() {
		if r.done.Done() {
			r.consume()
		}
		k(r.consumed)
	}))
}

// Wait blocks the issuing rank until the operation has completed, then
// releases the request's buffers back to the caller. It returns nil on
// success or the *RankFailedError the operation died with when a member of
// the communicator was declared failed mid-flight. Waiting on a request
// that already completed (a second Wait, or Wait after Test returned true)
// is a diagnosed error.
func (r *Request) Wait() error {
	r.wait(func(error) {})
	return r.call.err
}

// Err returns the request's completion error: nil while in flight or on
// success, the *RankFailedError otherwise. Valid any time; authoritative
// once the request completed (Wait returned or Test reported true).
func (r *request) Err() error { return r.call.err }

// Test polls the request: it yields the rank's time slice once and reports
// whether the operation has completed, consuming the request if so (a later
// Wait would be an error; further Tests keep returning true). A Test loop
// must interleave Compute — virtual time only advances when the rank
// spends it, so a bare spin would poll the same instant forever.
func (r *Request) Test() bool {
	r.test(func(bool) {})
	return r.consumed
}

// checkDrained panics (diagnosed at the Run boundary) if the rank's body
// returned with requests never completed — a dropped request would
// otherwise leave helpers running past the body and, on other ranks, peers
// blocked forever.
func (h handle) checkDrained() {
	st := &h.stream
	if len(st.live) == 0 {
		return
	}
	panic(&check.RequestError{
		Op: "srmcoll.Run", Rank: h.rank, Req: st.live[0].String(),
		Reason: fmt.Sprintf("%d request(s) dropped: the Run body returned without Wait", len(st.live)),
	})
}

// issued is issue from a body with a stack: admitted by the time it returns.
func (c *Comm) issued(a collArgs) *Request {
	c.issue(a, func(*TRequest) {})
	return (*Request)(c.stream.issued)
}

// IBarrier starts a non-blocking barrier.
func (c *Comm) IBarrier() *Request { return c.issued(collArgs{kind: collBarrier}) }

// IBcast starts a non-blocking broadcast of buf from root; see Bcast.
func (c *Comm) IBcast(buf []byte, root int) *Request {
	return c.issued(collArgs{kind: collBcast, send: buf, root: root})
}

// IReduce starts a non-blocking reduction into recv at root; see Reduce.
func (c *Comm) IReduce(send, recv []byte, dt Datatype, op Op, root int) *Request {
	return c.issued(collArgs{kind: collReduce, send: send, recv: recv, dt: dt, op: op, root: root})
}

// IAllreduce starts a non-blocking allreduce; see Allreduce.
func (c *Comm) IAllreduce(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issued(collArgs{kind: collAllreduce, send: send, recv: recv, dt: dt, op: op})
}

// IGather starts a non-blocking gather into recv at root; see Gather.
func (c *Comm) IGather(send, recv []byte, root int) *Request {
	return c.issued(collArgs{kind: collGather, send: send, recv: recv, root: root})
}

// IScatter starts a non-blocking scatter from root's send; see Scatter.
func (c *Comm) IScatter(send, recv []byte, root int) *Request {
	return c.issued(collArgs{kind: collScatter, send: send, recv: recv, root: root})
}

// IAllgather starts a non-blocking allgather; see Allgather.
func (c *Comm) IAllgather(send, recv []byte) *Request {
	return c.issued(collArgs{kind: collAllgather, send: send, recv: recv})
}

// IAlltoall starts a non-blocking all-to-all exchange; see Alltoall.
func (c *Comm) IAlltoall(send, recv []byte) *Request {
	return c.issued(collArgs{kind: collAlltoall, send: send, recv: recv})
}

// IReduceScatter starts a non-blocking reduce-scatter; see ReduceScatter.
func (c *Comm) IReduceScatter(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issued(collArgs{kind: collReduceScatter, send: send, recv: recv, dt: dt, op: op})
}

// IScan starts a non-blocking inclusive prefix reduction; see Scan.
func (c *Comm) IScan(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issued(collArgs{kind: collScan, send: send, recv: recv, dt: dt, op: op})
}

// IExscan starts a non-blocking exclusive prefix reduction; see Exscan.
func (c *Comm) IExscan(send, recv []byte, dt Datatype, op Op) *Request {
	return c.issued(collArgs{kind: collExscan, send: send, recv: recv, dt: dt, op: op})
}
