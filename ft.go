package srmcoll

// Fault-tolerant collectives (ULFM-style). When a cluster enables fault
// tolerance, a heartbeat failure detector watches every rank: a crashed
// task stops acknowledging its heartbeats and is *declared failed* one
// suspicion timeout after the first missed beat. Declaration is a global,
// deterministic event in virtual time that
//
//   - marks the rank's RMA endpoint dead, so in-flight and future puts
//     targeting it are dropped (and reliable-mode retransmit loops cut);
//   - kills the rank's request-helper processes (the service thread dies
//     with its task);
//   - interrupts every surviving rank blocked inside a collective that
//     includes the failed rank, unwinding the protocol into a structured
//     *RankFailedError instead of a hang;
//   - re-checks pending Agree/Shrink rendezvous, which complete over the
//     survivors.
//
// Survivors repair the communicator with Comm.Shrink (rebuild over the
// survivors) and agree on application state with Comm.Agree (fault-
// tolerant agreement: bitwise AND over the survivors' contributions).
// Both are rendezvous operations: every surviving member of the
// communicator must call the same sequence of FT operations on it, and a
// rank is released only once all survivors arrived (ranks declared failed
// mid-rendezvous are excluded, so the rendezvous itself never hangs on a
// crash). The whole recovery path is deterministic: same seed, same plan,
// same declarations, bit-identical replay.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// FTConfig enables the fault-tolerance subsystem.
type FTConfig struct {
	// Enabled turns fault tolerance on: collectives return structured
	// errors instead of hanging when a member rank crashes, and Agree /
	// Shrink become available. Off (the default), crashed runs report
	// the crash itself and every timing stays bit-identical to a cluster
	// that never heard of fault tolerance.
	Enabled bool
}

// The failure detector's timing, in simulated microseconds. A crash is noticed
// at the first heartbeat after it happens and declared a suspicion timeout
// later: a crash at time t is declared at
// floor(t/period)*period + period + timeout, since the beat at or before the
// death went out and the next one is missed.
const (
	heartbeatPeriod  = 50
	suspicionTimeout = 100
)

// declareTime is when a rank that died at died is declared failed: the detector
// in closed form, one event a death instead of a heartbeat a period.
func declareTime(died sim.Time) sim.Time {
	return float64(int64(died/heartbeatPeriod))*heartbeatPeriod + heartbeatPeriod + suspicionTimeout
}

// DefaultFTConfig returns an enabled config.
func DefaultFTConfig() FTConfig { return FTConfig{Enabled: true} }

// SetFaultTolerance installs the fault-tolerance configuration for
// subsequent runs.
func (cl *Cluster) SetFaultTolerance(cfg FTConfig) { cl.ft = cfg }

// FaultTolerance returns the cluster's current fault-tolerance config.
func (cl *Cluster) FaultTolerance() FTConfig { return cl.ft }

// RankFailedError is returned by a collective (or carried by a *Request)
// when a member of the communicator has been declared failed: the
// operation cannot complete and the communicator needs repair (Shrink)
// before further collectives on it can succeed. Failed is read-only: the
// errors one declaration hands the communicator's ranks share the list
// (Comm.FailedRanks returns a copy).
type RankFailedError struct {
	Op     string // the operation that observed the failure, e.g. "allreduce"
	Rank   int    // the calling rank that got the error
	Failed []int  // communicator members declared failed, ascending member order
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("srmcoll: %s on rank %d: rank(s) %v declared failed; shrink the communicator to continue",
		e.Op, e.Rank, e.Failed)
}

// ErrRankFailed is the sentinel matched by errors.Is for every
// *RankFailedError.
var ErrRankFailed = errors.New("rank declared failed")

func (e *RankFailedError) Unwrap() error { return ErrRankFailed }

// FailureRecord reports one declared rank failure of a run.
type FailureRecord struct {
	Rank       int     // global rank that crashed
	CrashedAt  float64 // virtual time the task died
	DeclaredAt float64 // virtual time the detector declared it failed
}

// RepairRecord reports one completed Agree/Shrink rendezvous.
type RepairRecord struct {
	Kind        string  // "agree" or "shrink"
	Comm        string  // rendezvous key "<communicator>#<round>": "world" or the member list as fmt prints it, then the communicator's count of earlier rendezvous, e.g. "[0 1 3]#2"
	StartedAt   float64 // first survivor entered
	CompletedAt float64 // rendezvous completed (last survivor entered or last straggler declared)
	Survivors   []int   // members that completed the rendezvous, ascending member order
}

// ftInterrupt is the interrupt payload delivered to an actor blocked inside a
// collective when a member of its communicator is declared failed;
// frame.declared turns it into a *RankFailedError. One is made per declaration
// per communicator and delivered by pointer to every operation on it
// (ftState.told).
type ftInterrupt struct{ failed []int }

// ftReg is one in-progress fault-sensitive operation: the task running it
// (the rank's own, or a request helper's — each runs one operation at a time,
// so it identifies the entry) and the communicator it runs on. Registered
// operations are interrupted when a member is declared.
type ftReg struct {
	t   *sim.Task
	rec *commRec
}

// ftGather is one Agree/Shrink rendezvous of a communicator: the completion
// event survivors park on and, once done, the outcome. Who has entered is kept
// on the communicator's record, which holds two of these (commRec.gathers).
type ftGather struct {
	rec       *commRec
	round     int
	kind      string // "agree" or "shrink"
	ev        sim.Event
	startedAt float64
	result    uint64
	survivors []int
}

// ftEntry is what one member entered the rendezvous in flight with.
type ftEntry struct {
	flag uint64
	in   bool
}

// key is the rendezvous key RepairRecord.Comm carries.
func (g *ftGather) key() string {
	var buf [256]byte
	return g.rec.rs.str(strconv.AppendInt(append(append(buf[:0], g.rec.key()...), '#'), int64(g.round), 10))
}

// String labels the completion event in stall reports.
func (g *ftGather) String() string { return g.kind + " " + g.key() }

// ftState is the per-Run fault-tolerance bookkeeping, shared by every Comm of
// the run; the rendezvous streams are on the communicator records. All
// mutation happens on the single simulator thread.
type ftState struct {
	env *sim.Env
	rs  *runState

	markDead func(rank int) // cuts RMA delivery to the rank

	failed     []bool  // declared failed, by global rank
	crashed    []bool  // actually dead (declaration may be pending)
	inflight   []ftReg // room for a task a rank from the start
	failures   []FailureRecord
	repairs    []RepairRecord
	unexpected []sim.ProcFailure // failures that are not plan crashes or their fallout
	due        []*ftGather       // declare's rendezvous to complete, kept for the next
	declares   []ftDeclare       // the declarations crashes scheduled, room for each of the plan's from the start
}

// ftDeclare is the declaration of a crashed rank as the queue item onFailure
// schedules.
type ftDeclare struct {
	ft     *ftState
	rank   int
	diedAt float64
}

func (d *ftDeclare) Resume() { d.ft.declare(d.rank, d.diedAt) }

// newFTState turns fault tolerance on for the run: its bookkeeping is the
// run's, from the reserve, but for the failure records the result carries.
func (rs *runState) newFTState(markDead func(int), n, crashes int) {
	flags := rs.bools.Take(2 * n)
	rs.ftMem = ftState{
		env:      rs.env,
		rs:       rs,
		markDead: markDead,
		failed:   flags[:n],
		crashed:  flags[n:],
		inflight: rs.regs.Take(n)[:0],
		declares: rs.decls.Take(crashes)[:0],
		failures: make([]FailureRecord, 0, crashes),
	}
	rs.ft = &rs.ftMem
}

// onFailure is the Env.OnFailure hook: classify each task death as an expected
// plan crash (schedule its declaration, take the rank's service helpers down
// with it) or an unexpected failure (a real bug — surfaced as a *RunError). It
// runs before control returns to the scheduler, so it may schedule events but
// must not park.
func (ft *ftState) onFailure(t *sim.Task, f sim.ProcFailure) {
	if f.Killed() {
		switch r, helper := ft.rs.rankOf(t); {
		case helper && ft.crashed[r]:
			return // a helper killed below: fallout, not a new failure
		case r >= 0 && !helper:
			ft.crashed[r] = true
			// The rank's communication service thread dies with the task:
			// kill its request helpers so they cannot keep driving the
			// dead rank's side of a protocol. A helper still running is
			// that of a request not done, and those are live.
			if st := ft.rs.ranks[r].stream; st != nil {
				for q := st.oldest; q != nil; q = q.newer {
					if !q.done.Done() {
						ft.env.Kill(q.call.t, "rank "+strconv.Itoa(r)+" crashed")
					}
				}
			}
			// A rank crashes once, so the plan's crashes left room for this
			// one: the record scheduled is never moved.
			ft.declares = append(ft.declares, ftDeclare{ft: ft, rank: r, diedAt: float64(f.Time)})
			ft.env.AtK(declareTime(f.Time), &ft.declares[len(ft.declares)-1])
			return
		}
	}
	ft.unexpected = append(ft.unexpected, f)
}

// declare marks rank d failed at the current virtual time and propagates:
// endpoint death, interrupts into blocked collectives, rendezvous
// re-checks. Deterministic: runs as a scheduled simulator event.
func (ft *ftState) declare(d int, diedAt float64) {
	if ft.failed[d] {
		return
	}
	ft.failed[d] = true
	now := float64(ft.env.Now())
	ft.failures = append(ft.failures, FailureRecord{Rank: d, CrashedAt: diedAt, DeclaredAt: now})
	ft.markDead(d)
	if tr := ft.env.Trace; tr != nil {
		g := tr.NewGroup()
		tr.Add(g, -1, trace.ClassDetect, fmt.Sprintf("detect:rank%d", d), 0, diedAt, now)
	}
	// Count the failure on every communicator that has the rank, and collect
	// the rendezvous it may have been the straggler of.
	pending := ft.due[:0]
	for _, rec := range ft.rs.comms {
		if rec.coll.Index(d) < 0 { // fault tolerance is SRM's only
			continue
		}
		rec.failed++
		if rec.pending != nil {
			pending = append(pending, rec.pending)
		}
	}
	// Interrupt every registered operation whose communicator contains the
	// failed rank. Registration order is deterministic, so so is this.
	for _, reg := range ft.inflight {
		if reg.rec.coll.Index(d) < 0 {
			continue
		}
		ft.env.Interrupt(reg.t, ft.told(reg.rec))
	}
	// Complete what is now complete, in ascending order of the rendezvous key
	// strings: the order repair records have always had. A communicator has
	// one rendezvous pending at most and its key is cached, so the keys of the
	// communicators order them alike and build nothing.
	slices.SortFunc(pending, func(a, b *ftGather) int { return strings.Compare(a.rec.key(), b.rec.key()) })
	for _, g := range pending {
		ft.checkGather(g)
	}
	ft.due = pending
}

// told returns what the communicator's ranks are told of its failed members:
// the list of them so far, in member order. It is made once per declaration
// that adds to it — rec.failed members are on it, so its length says whether it
// is current — and shared by everything that declaration reaches: the interrupt
// of every registered operation, and every error the record's ranks are given
// until the next one. An interrupt already on its way keeps the list it was sent
// with. Callers must not write to it.
func (ft *ftState) told(rec *commRec) *ftInterrupt {
	if rec.told == nil || len(rec.told.failed) != rec.failed {
		failed := carve(&ft.rs.ints, rec.failed, 256)[:0]
		for _, r := range rec.list() {
			if ft.failed[r] {
				failed = append(failed, r)
			}
		}
		rec.told = &carve(&ft.rs.tolds, 1, 16)[0]
		rec.told.failed = failed
	}
	return rec.told
}

// register adds an in-progress operation to the interrupt set.
func (ft *ftState) register(t *sim.Task, rec *commRec) {
	ft.inflight = append(ft.inflight, ftReg{t: t, rec: rec})
}

// deregister removes the finished operation of a task. The slice stays
// compact: the common case removes near the end.
func (ft *ftState) deregister(t *sim.Task) {
	for i := len(ft.inflight) - 1; i >= 0; i-- {
		if ft.inflight[i].t == t {
			ft.inflight = slices.Delete(ft.inflight, i, i+1)
			return
		}
	}
}

// enter joins rank to the communicator's rendezvous in flight, beginning the
// next one — and creating its event — if none is, and completes it if rank was
// the last member awaited. The caller waits for the event, which has triggered
// by then if it was.
func (rec *commRec) enter(ft *ftState, rank int, kind string, flag uint64) *ftGather {
	i := rec.coll.Index(rank)
	if i < 0 {
		panic(fmt.Sprintf("srmcoll: rank %d entered %s on %s, which it is not a member of", rank, kind, rec.key()))
	}
	g := rec.pending
	if g == nil {
		g = &rec.gathers[rec.round%2]
		*g = ftGather{rec: rec, round: rec.round, kind: kind, startedAt: float64(ft.env.Now())}
		g.ev.Init(ft.env)
		g.ev.NamedBy(g)
		rec.round++
		rec.pending = g
		if rec.entered == nil {
			rec.entered = ft.rs.entries.Take(len(rec.members))
		}
	}
	if g.kind != kind {
		panic(fmt.Sprintf("srmcoll: rank %d entered %s on %s but other members are in %s: FT operations must be called in the same order on every member",
			rank, kind, rec.key(), g.kind))
	}
	rec.entered[i] = ftEntry{flag, true}
	ft.checkGather(g)
	return g
}

// checkGather completes a rendezvous once every member has either entered
// or been declared failed.
func (ft *ftState) checkGather(g *ftGather) {
	rec := g.rec
	list := rec.list()
	for i, r := range list {
		if !rec.entered[i].in && !ft.failed[r] {
			return
		}
	}
	g.result = ^uint64(0)
	g.survivors = carve(&ft.rs.ints, len(list)-rec.failed, 256)[:0]
	for i, r := range list {
		if !ft.failed[r] {
			g.survivors = append(g.survivors, r)
			g.result &= rec.entered[i].flag
		}
	}
	if ft.repairs == nil {
		ft.repairs = make([]RepairRecord, 0, 2+2*cap(ft.failures)) // a Shrink and an Agree a crash, and a pair besides
	}
	ft.repairs = append(ft.repairs, RepairRecord{
		Kind: g.kind, Comm: g.key(), StartedAt: g.startedAt,
		CompletedAt: float64(ft.env.Now()),
		Survivors:   g.survivors,
	})
	rec.pending = nil
	clear(rec.entered)
	g.ev.Trigger()
}

// failedError is the error of an operation on a communicator with members
// declared failed.
func (h handle) failedError(opName string) *RankFailedError {
	return h.rs().failedError(opName, h.rank(), h.rs().ft.told(h.rec).failed)
}

// failedError carves an error from the run's chunk of them: a declaration
// hands one to nearly every member, and the caller may keep it.
func (rs *runState) failedError(op string, rank int, failed []int) *RankFailedError {
	e := &carve(&rs.errs, 1, min(len(rs.ranks), 64))[0]
	*e = RankFailedError{Op: op, Rank: rank, Failed: failed}
	return e
}

// Members returns the communicator's global ranks in member order. The slice
// is the communicator's own, made once and shared by every member's handle:
// it must not be modified. Its capacity is its length, so an append copies.
func (c *Comm) Members() []int { return c.rec.members }

// FailedRanks returns the communicator members declared failed so far, in
// member order: a copy, the caller's own. Empty without fault tolerance.
func (c *Comm) FailedRanks() []int {
	if c.rs().ft == nil {
		return nil
	}
	return slices.Clone(c.rs().ft.told(c.rec).failed)
}

// syncFrame is a rank's Agree or Shrink from the call to its continuation, and
// afterwards what it ended with: err, or the rendezvous the survivors left
// together. It is the rank's, and each suspension resumes it, so a rendezvous
// makes no closure.
type syncFrame struct {
	h     handle      // the communicator, as the rank that called holds it
	class trace.Class // ClassAgree or ClassShrink, named "agree" and "shrink"
	flag  uint64
	g     *ftGather
	err   error
	span  int
	stage int // suspensions behind it
	k     func()
}

// ftSync runs one rendezvous round on the communicator: every surviving
// member must call it (in the same per-communicator FT-op order), and all
// are released together once the last survivor arrives. The round is
// charged a dissemination-style cost of 2*ceil(log2 n) message latencies.
// k runs when the rank is released, or at once if the call is refused; the
// rank's syncFrame says which.
func (h handle) ftSync(class trace.Class, flag uint64, k func()) {
	if h.sync == nil {
		h.sync = h.rs().syncs.New()
	}
	s := h.sync
	*s = syncFrame{h: h, class: class, flag: flag, k: k}
	switch ft := h.rs().ft; {
	case ft == nil:
		s.err = errors.New("srmcoll: " + class.String() + " requires fault tolerance (Cluster.SetFaultTolerance)")
	case ft.failed[h.rank()]:
		// A declared rank that is somehow still running (cannot happen
		// for real crashes) must not join the survivors' rendezvous.
		s.err = &RankFailedError{Op: class.String(), Rank: h.rank(), Failed: []int{h.rank()}}
	}
	if s.err != nil {
		k()
		return
	}
	// Ordered, like a blocking collective, after the rank's requests.
	if tail := h.outstanding(); tail != nil {
		h.call.wait(tail, s)
		return
	}
	s.Resume()
}

// Resume is what follows each suspension of a rendezvous: only the survivor
// park and the protocol-cost sleep suspend the rank once its requests are done.
func (s *syncFrame) Resume() {
	h := s.h
	switch s.stage++; s.stage {
	case 1: // no request outstanding: enter, and wait for the other survivors
		s.g = h.rec.enter(h.rs().ft, h.rank(), s.class.String(), s.flag)
		s.span = h.rs().tr.Begin(h.call.t.Track(), s.class, s.class.String(), 0)
		h.call.wait(&s.g.ev, s)
	case 2: // all in or declared failed: the agreement protocol's cost
		h.call.sleep(h.ftSyncCost(), s)
	case 3:
		h.rs().tr.End(s.span)
		s.k()
	}
}

// ftSyncCost models the agreement protocol's latency: dissemination over
// the members, two passes (propose, commit).
func (h handle) ftSyncCost() float64 {
	n := len(h.rec.members)
	if n <= 1 {
		return 0
	}
	rounds := int(math.Ceil(math.Log2(float64(n))))
	cfg := &h.rs().m.Cfg
	return 2 * float64(rounds) * float64(cfg.SendOverhead+cfg.NetLatency+cfg.RecvOverhead)
}

// agreed and shrunk are what the rank's last rendezvous ended with, for Agree
// and Shrink to return or pass on.
func (h handle) agreed() (uint64, error) {
	if h.sync.err != nil {
		return 0, h.sync.err
	}
	return h.sync.g.result, nil
}

func (h handle) shrunk() (*Comm, error) {
	if h.sync.err != nil {
		return nil, h.sync.err
	}
	return h.sub(h.sync.g.survivors), nil
}

// Agree is fault-tolerant agreement on a 64-bit flag word: it returns the
// bitwise AND of the flags contributed by every member that completed the
// rendezvous (members declared failed mid-agreement are excluded). All
// survivors receive the same result, even when some observe a failure and
// others do not — the tool for deciding, after an error, how far the
// computation verifiably got. Every surviving member of the communicator
// must call it (the call blocks until they do); unlike a collective it
// does not error on membership failures.
func (c *Comm) Agree(flags uint64) (uint64, error) {
	c.ftSync(trace.ClassAgree, flags, func() {})
	return c.agreed()
}

// Shrink repairs the communicator after a failure: it synchronizes the
// surviving members and returns a new communicator over exactly the ranks
// that completed the rendezvous, with rank maps and collective trees
// rebuilt. Every surviving member must call it and receives the same
// member list. The calling rank keeps its global rank; Size() shrinks.
// Collectives on the new communicator succeed as long as no *further*
// failure hits it — another crash means another Shrink.
func (c *Comm) Shrink() (*Comm, error) {
	c.ftSync(trace.ClassShrink, 0, func() {})
	return c.shrunk()
}
