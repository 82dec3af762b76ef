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

// FTConfig enables and tunes the fault-tolerance subsystem. Times are
// simulated microseconds.
type FTConfig struct {
	// Enabled turns fault tolerance on: collectives return structured
	// errors instead of hanging when a member rank crashes, and Agree /
	// Shrink become available. Off (the default), crashed runs report
	// the crash itself and every timing stays bit-identical to a cluster
	// that never heard of fault tolerance.
	Enabled bool

	// HeartbeatPeriod is the interval between heartbeats (default 50).
	// A crash is noticed at the first beat after it happens.
	HeartbeatPeriod float64

	// SuspicionTimeout is how long after a missed beat the rank is
	// declared failed (default 100). Declaration time for a crash at time
	// t is floor(t/period)*period + period + timeout: the beat at or
	// before the death went out, the next one is missed.
	SuspicionTimeout float64
}

// DefaultFTConfig returns an enabled config with the default detector
// timing (heartbeat every 50 us, declared failed 100 us after a missed
// beat).
func DefaultFTConfig() FTConfig {
	return FTConfig{Enabled: true, HeartbeatPeriod: 50, SuspicionTimeout: 100}
}

// SetFaultTolerance installs the fault-tolerance configuration for
// subsequent runs. Zero HeartbeatPeriod / SuspicionTimeout fall back to
// the defaults (50 / 100).
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
// on the communicator's record.
type ftGather struct {
	rec       *commRec
	round     int
	kind      string // "agree" or "shrink"
	ev        *sim.Event
	startedAt float64
	result    uint64
	survivors []int
}

// key is the rendezvous key RepairRecord.Comm carries.
func (g *ftGather) key() string { return g.rec.key() + "#" + strconv.Itoa(g.round) }

// String labels the completion event in stall reports.
func (g *ftGather) String() string { return g.kind + " " + g.key() }

// ftState is the per-Run fault-tolerance bookkeeping, shared by every Comm of
// the run; the rendezvous streams are on the communicator records. All
// mutation happens on the single simulator thread.
type ftState struct {
	env *sim.Env
	det *sim.Detector
	rs  *runState

	markDead func(rank int) // cuts RMA delivery to the rank

	failed     []bool // declared failed, by global rank
	crashed    []bool // actually dead (declaration may be pending)
	inflight   []ftReg
	failures   []FailureRecord
	repairs    []RepairRecord
	unexpected []sim.ProcFailure // failures that are not plan crashes or their fallout
}

func newFTState(env *sim.Env, markDead func(int), n int, rs *runState, cfg FTConfig) *ftState {
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = 50
	}
	if cfg.SuspicionTimeout <= 0 {
		cfg.SuspicionTimeout = 100
	}
	ft := &ftState{
		env:      env,
		rs:       rs,
		markDead: markDead,
		failed:   make([]bool, n),
		crashed:  make([]bool, n),
		det:      sim.NewDetector(cfg.HeartbeatPeriod, cfg.SuspicionTimeout),
	}
	return ft
}

// onFailure is the Env.OnFailure hook: classify each task death as an expected
// plan crash (schedule its declaration, take the rank's service helpers down
// with it) or an unexpected failure (a real bug — surfaced as a *RunError). It
// runs before control returns to the scheduler, so it may schedule events but
// must not park.
func (ft *ftState) onFailure(t *sim.Task, f sim.ProcFailure) {
	if _, isCrash := f.Cause.(sim.Crashed); isCrash {
		switch r, helper := ft.rs.rankOf(t); {
		case helper && ft.crashed[r]:
			return // a helper killed below: fallout, not a new failure
		case r >= 0 && !helper:
			ft.crashed[r] = true
			// The rank's communication service thread dies with the task:
			// kill its request helpers so they cannot keep driving the
			// dead rank's side of a protocol.
			why := fmt.Sprintf("rank %d crashed", r)
			for _, h := range ft.rs.ranks[r].stream.helpers {
				ft.env.Kill(h, why)
			}
			// The detector's collapsed heartbeat analysis: the declaration
			// lands at a time that depends only on when the rank died.
			ft.env.At(ft.det.DeclareTime(f.Time), func() { ft.declare(r, float64(f.Time)) })
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
	var pending []*ftGather
	for _, rec := range ft.rs.comms {
		if rec.idx.Of(d) < 0 {
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
		if reg.rec.idx.Of(d) < 0 {
			continue
		}
		ft.env.Interrupt(reg.t, ft.told(reg.rec))
	}
	// Complete what is now complete, in ascending order of the rendezvous key
	// strings: the order repair records have always had, and once per declared
	// failure is rare enough to format the keys for.
	slices.SortFunc(pending, func(a, b *ftGather) int { return strings.Compare(a.key(), b.key()) })
	for _, g := range pending {
		ft.checkGather(g)
	}
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
		failed := make([]int, 0, rec.failed)
		for _, r := range rec.members {
			if ft.failed[r] {
				failed = append(failed, r)
			}
		}
		rec.told = &ftInterrupt{failed}
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
	i := rec.idx.Of(rank)
	if i < 0 {
		panic(fmt.Sprintf("srmcoll: rank %d entered %s on %s, which it is not a member of", rank, kind, rec.key()))
	}
	g := rec.pending
	if g == nil {
		g = &ftGather{rec: rec, round: rec.round, kind: kind, startedAt: float64(ft.env.Now())}
		g.ev = ft.env.NewEvent().NamedBy(g)
		rec.round++
		rec.pending = g
		if rec.in == nil {
			rec.entered, rec.in = make([]uint64, len(rec.members)), make([]bool, len(rec.members))
		}
	}
	if g.kind != kind {
		panic(fmt.Sprintf("srmcoll: rank %d entered %s on %s but other members are in %s: FT operations must be called in the same order on every member",
			rank, kind, rec.key(), g.kind))
	}
	rec.entered[i], rec.in[i] = flag, true
	ft.checkGather(g)
	return g
}

// checkGather completes a rendezvous once every member has either entered
// or been declared failed.
func (ft *ftState) checkGather(g *ftGather) {
	rec := g.rec
	for i, r := range rec.members {
		if !rec.in[i] && !ft.failed[r] {
			return
		}
	}
	g.result = ^uint64(0)
	g.survivors = make([]int, 0, len(rec.members)-rec.failed)
	for i, r := range rec.members {
		if !ft.failed[r] {
			g.survivors = append(g.survivors, r)
			g.result &= rec.entered[i]
		}
	}
	ft.repairs = append(ft.repairs, RepairRecord{
		Kind: g.kind, Comm: g.key(), StartedAt: g.startedAt,
		CompletedAt: float64(ft.env.Now()),
		Survivors:   g.survivors,
	})
	rec.pending = nil
	clear(rec.in)
	g.ev.Trigger()
}

// failedError is the error of an operation on a communicator with members
// declared failed.
func (h handle) failedError(opName string) *RankFailedError {
	return &RankFailedError{Op: opName, Rank: h.rank, Failed: h.rs.ft.told(h.rec).failed}
}

// Members returns the communicator's global ranks in member order.
func (c *Comm) Members() []int { return slices.Clone(c.rec.members) }

// FailedRanks returns the communicator members declared failed so far, in
// member order: a copy, the caller's own. Empty without fault tolerance.
func (c *Comm) FailedRanks() []int {
	if c.rs.ft == nil {
		return nil
	}
	return slices.Clone(c.rs.ft.told(c.rec).failed)
}

// syncFrame is a rank's Agree or Shrink from the call to its continuation, and
// afterwards what it ended with: err, or the rendezvous the survivors left
// together. It is bound to the rank once, so a rendezvous makes no closure.
type syncFrame struct {
	h      handle      // the communicator, as the rank that called holds it
	class  trace.Class // ClassAgree or ClassShrink, named "agree" and "shrink"
	flag   uint64
	g      *ftGather
	err    error
	span   int
	stage  int // suspensions behind it
	k      func()
	stepFn func() // step, bound when first needed
}

// ftSync runs one rendezvous round on the communicator: every surviving
// member must call it (in the same per-communicator FT-op order), and all
// are released together once the last survivor arrives. The round is
// charged a dissemination-style cost of 2*ceil(log2 n) message latencies.
// k runs when the rank is released, or at once if the call is refused; the
// rank's syncFrame says which.
func (h handle) ftSync(class trace.Class, flag uint64, k func()) {
	s := &h.sync
	*s = syncFrame{h: h, class: class, flag: flag, k: k, stepFn: s.stepFn}
	switch ft := h.rs.ft; {
	case ft == nil:
		s.err = errors.New("srmcoll: " + class.String() + " requires fault tolerance (Cluster.SetFaultTolerance)")
	case ft.failed[h.rank]:
		// A declared rank that is somehow still running (cannot happen
		// for real crashes) must not join the survivors' rendezvous.
		s.err = &RankFailedError{Op: class.String(), Rank: h.rank, Failed: []int{h.rank}}
	}
	if s.err != nil {
		k()
		return
	}
	if s.stepFn == nil {
		s.stepFn = s.step
	}
	// Ordered, like a blocking collective, after the rank's requests.
	if tail := h.outstanding(); tail != nil {
		h.wait(tail, s.stepFn)
		return
	}
	s.step()
}

// step is what follows each suspension of a rendezvous: only the survivor park
// and the protocol-cost sleep suspend the rank once its requests are done.
func (s *syncFrame) step() {
	h := s.h
	switch s.stage++; s.stage {
	case 1: // no request outstanding: enter, and wait for the other survivors
		s.g = h.rec.enter(h.rs.ft, h.rank, s.class.String(), s.flag)
		s.span = h.tr.Begin(h.t.Track(), s.class, s.class.String(), 0)
		h.wait(s.g.ev, s.stepFn)
	case 2: // all in or declared failed: the agreement protocol's cost
		h.sleep(h.ftSyncCost(), s.stepFn)
	case 3:
		h.tr.End(s.span)
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
	cfg := h.m.Cfg
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
