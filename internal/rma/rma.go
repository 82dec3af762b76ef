// Package rma models a LAPI-like one-sided communication layer: non-blocking
// put/get, active messages, and origin/target/completion counters with
// LAPI_Waitcntr semantics (§2.3 of the paper). Delivery follows the paper's
// interrupt and progress rules:
//
//   - if the target task is inside an RMA call, the dispatcher polls and the
//     message is delivered after the receive overhead;
//   - otherwise, with interrupts enabled, delivery costs an interrupt (plus a
//     starvation penalty when tasks on the node spin without yielding);
//   - with interrupts disabled, delivery is deferred until the target task's
//     next RMA call ("the put operation would not be able to complete
//     without implicit cooperation of the destination task").
package rma

import (
	"fmt"
	"sync"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/check"
	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Counter is a LAPI-style completion counter. Waitcntr blocks until the
// counter reaches a value and then subtracts it, so counters can carry
// repeated round-trip flow control (§2.4 broadcast buffer management). A
// counter's condition is embedded by value, so a counter is one piece of
// memory: a heap object from NewCounter, or part of a slab its owner carved
// and bound with Init.
type Counter struct {
	env  *sim.Env
	val  int
	cond sim.Cond
	wcl  trace.Class // span class recorded while a process blocks here
}

// NewCounter creates a counter with the given initial value.
func NewCounter(env *sim.Env, initial int) *Counter {
	c := new(Counter)
	c.Init(env, initial)
	return c
}

// Init binds a zero Counter to the environment with the given initial value,
// drawing its report id exactly as NewCounter does.
func (c *Counter) Init(env *sim.Env, initial int) {
	c.env, c.val, c.wcl = env, initial, trace.ClassWaitCntr
	c.cond.Init(env)
}

// TraceClass sets the wait class recorded when a process blocks on the
// counter (arrival wait, ack wait, credit wait, ...) and returns c, so
// protocol setup can chain it after NewCounter.
func (c *Counter) TraceClass(cl trace.Class) *Counter { c.wcl = cl; return c }

// Value returns the current count.
func (c *Counter) Value() int { return c.val }

// Incr adds n and wakes waiters. The RMA layer calls it on delivery;
// protocols may also use it directly for locally produced events.
func (c *Counter) Incr(n int) {
	c.val += n
	c.cond.Broadcast()
}

// DescribeWait implements sim.WaitDescriber for stall reports.
func (c *Counter) DescribeWait(want int) string {
	return fmt.Sprintf("rma counter %s: value %d, want >= %d", c.cond.ID(), c.val, want)
}

// WaitValue is WaitValueT from a process body.
func (c *Counter) WaitValue(p *sim.Proc, v int) {
	c.WaitValueT(&p.Task, v, p.Resume())
	p.Park()
}

// Endpoint is one task's attachment to the RMA layer.
type Endpoint struct {
	dom        *Domain
	Rank       int
	Node       int
	inCall     bool
	interrupts bool
	dead       bool       // task declared failed; deliveries are dropped
	pending    []deferred // deferred deliveries awaiting a progress opportunity
	chans      *channel   // reliable delivery: the channels this rank has put on (reliable.go)
}

// deferred is one delivery parked at an endpoint whose interrupts are off: what
// lands it, and the put frame that is waiting for that (nil for a message that
// has none), so that MarkDead can tell the frame when it throws the list away.
type deferred struct {
	fn func()
	fr *delivery
}

// Domain is the RMA communication domain: one endpoint per task.
type Domain struct {
	m   *machine.Machine
	eps []Endpoint // by rank, one slab; an Endpoint is held by pointer into it

	// The frames of the remote puts (reliable.go): carved here, idle between
	// two puts, and the domain's until Release.
	frameMem bufpool.Chunks[delivery]
	idle     *delivery

	// Reliable-delivery state (see reliable.go). Off by default: the
	// paper's protocols assume LAPI delivers every put exactly once.
	reliable   bool
	ackTimeout sim.Time
	backoffCap sim.Time
	chanMem    bufpool.Chunks[channel]

	wire   wireMode // how remote puts move their payload, fixed at the first
	mortal bool     // AllowDeaths: ranks may be marked dead

	tally Tally // what became of every transmission
}

// wireMode is how a domain's remote puts move their payload. The choice is made
// once, at the domain's first put (decide), from what can happen to a delivery.
type wireMode uint8

const (
	wireUndecided wireMode = iota
	// wireDirect copies src to dst at issue, and the landing only fires
	// counters: every transmission lands exactly once. The target cannot tell,
	// since it waits for the target counter before it reads the window.
	wireDirect
	// wireSnapshot copies src to a pooled snapshot at issue and the snapshot to
	// dst at each landing: a transmission may be dropped, duplicated,
	// retransmitted or discarded, so the bytes move only when one lands.
	wireSnapshot
	// wireChecked is wireSnapshot on a clean wire under CheckWindows: dst is
	// poisoned at issue and must be poisoned still at the landing.
	wireChecked
)

// checkWindows is the test switch of CheckWindows, read by a domain at its
// first put.
var checkWindows bool

// CheckWindows switches the put-window check for domains that have not put yet.
// Under it a clean-wire put keeps its snapshot, fills its target window with
// windowPoison at issue and, when it lands, panics with a *check.WindowError if
// anything wrote the window in between; a target that reads the window early
// reads poison and fails its payload check. That is what makes wireDirect
// safe: no protocol may touch a window while a put into it is in flight.
// Tests only; it is not safe to call while simulations run on other
// goroutines.
func CheckWindows(on bool) { checkWindows = on }

// windowPoison is what a checked put fills its window with; it differs from the
// buffer pool's poison so that the two checks cannot be mistaken for each other.
const windowPoison = 0x5A

// decide fixes the domain's wire mode. The snapshot stays wherever a delivery
// can be lost, repeated or thrown away: under a fault injector, in reliable
// mode, and where MarkDead may discard pending landings.
func (d *Domain) decide() {
	switch {
	case d.m.Faults != nil || d.reliable || d.mortal:
		d.wire = wireSnapshot
	case checkWindows:
		d.wire = wireChecked
	default:
		d.wire = wireDirect
	}
}

// NewDomain attaches every task of the machine to the RMA layer.
// Interrupts start enabled, as on LAPI.
func NewDomain(m *machine.Machine) *Domain {
	d := &Domain{m: m, eps: make([]Endpoint, m.P())}
	for r := range d.eps {
		d.eps[r] = Endpoint{dom: d, Rank: r, Node: m.NodeOf(r), interrupts: true}
	}
	return d
}

// Endpoint returns the endpoint of a global rank.
func (d *Domain) Endpoint(rank int) *Endpoint { return &d.eps[rank] }

// Release hands the domain's put frames and channel records back to the
// process-level reserve, under the condition of sim.Env.Release and together
// with it: the simulation is over, so no callback of a frame will run. The
// ledger keeps what it read of the frames; the domain must not be put on again.
func (d *Domain) Release() {
	d.tally = d.Tally()
	d.idle, d.eps = nil, nil
	d.frameMem.Release()
	d.chanMem.Release()
}

// MarkDead records that a rank's task has been declared failed. From this
// point deliveries addressed to it are dropped (the link-level machinery —
// injection, acks, retransmit suppression — keeps running in the adapter,
// so origins of in-flight reliable puts still converge), its deferred
// deliveries are discarded (a put among them is told, so that its frame
// drains and its snapshot goes back to the pool), and reliable retransmit
// loops targeting it stop rescheduling. Marking a rank dead twice is a no-op.
// A domain that AllowDeaths was not called on panics with a *check.DeathError.
func (d *Domain) MarkDead(rank int) {
	if !d.mortal {
		panic(&check.DeathError{Rank: rank})
	}
	ep := &d.eps[rank]
	if ep.dead {
		return
	}
	ep.dead = true
	for _, p := range ep.pending {
		if p.fr != nil {
			p.fr.discard()
		}
	}
	ep.pending = nil
	ep.inCall = false
}

// AllowDeaths tells the domain that ranks may be marked dead during the run, so
// that its puts keep their snapshots: a landing MarkDead discards must not have
// moved any bytes. It must come before the domain's first put.
func (d *Domain) AllowDeaths() {
	if d.wire == wireDirect {
		panic("rma: AllowDeaths after the domain's first put")
	}
	d.mortal = true
}

// Dead reports whether the rank has been marked failed.
func (d *Domain) Dead(rank int) bool { return d.eps[rank].dead }

// Machine returns the underlying machine model.
func (d *Domain) Machine() *machine.Machine { return d.m }

// NewCounter creates a counter in the domain's environment.
func (d *Domain) NewCounter(initial int) *Counter { return NewCounter(d.m.Env, initial) }

// SetInterrupts switches the endpoint's interrupt mode. Enabling interrupts
// releases any deferred deliveries (each paying the interrupt cost).
func (ep *Endpoint) SetInterrupts(on bool) {
	ep.interrupts = on
	if on && len(ep.pending) > 0 {
		m := ep.dom.m
		for _, p := range ep.pending {
			m.Stats.Interrupts++
			m.Env.After(m.Cfg.InterruptCost+m.SpinPenalty(ep.Node), p.fn)
		}
		ep.pending = nil
	}
}

// Interrupts reports the endpoint's interrupt mode.
func (ep *Endpoint) Interrupts() bool { return ep.interrupts }

// Waitcntr is WaitcntrT from a process body.
func (ep *Endpoint) Waitcntr(p *sim.Proc, c *Counter, v int) {
	ep.WaitcntrT(&p.Task, c, v, p.Resume())
	p.Park()
}

// Probe is ProbeT from a process body.
func (ep *Endpoint) Probe(p *sim.Proc) {
	ep.ProbeT(&p.Task, p.Resume())
	p.Park()
}

// deliver routes an arrived message according to the interrupt/progress
// rules. fn performs the actual data movement and counter updates. Injected
// interrupt storms (machine.StormPenalty, zero by default) slow deliveries
// the same way spin-loop starvation does.
//
// fr is the frame of the put the message carries, nil for a message that is
// not a put's; its trace group and issuing span name the delivery leg, which
// is recorded as a span from arrival to the moment fn runs, named after the
// mode that delivered it. deliver reports whether it took the message: false
// means the target is dead and fn will never run.
func (ep *Endpoint) deliver(fr *delivery, fn func()) bool {
	m := ep.dom.m
	if ep.dead {
		// The task was declared failed: its adapter still acks at the link
		// level (reliable.go), but nothing is delivered to the dead task.
		m.Stats.DeadDrops++
		return false
	}
	tr := m.Env.Trace
	g, par := -1, -1
	if fr != nil {
		g, par = fr.g, fr.par
	}
	switch {
	case ep.inCall:
		// Even with the dispatcher polling, the service threads need CPU
		// cycles that non-yielding spin loops elsewhere on the node hold
		// (§2.4) — hence the starvation penalty here as well.
		d := m.Cfg.RecvOverhead + m.SpinPenalty(ep.Node) + m.StormPenalty(ep.Node)
		if tr != nil && g >= 0 {
			tr.Add(g, par, trace.ClassPutDeliver, "put:deliver:poll", 0, m.Env.Now(), m.Env.Now()+d)
		}
		m.Env.After(d, fn)
	case ep.interrupts:
		m.Stats.Interrupts++
		d := m.Cfg.InterruptCost + m.SpinPenalty(ep.Node) + m.StormPenalty(ep.Node)
		if tr != nil && g >= 0 {
			tr.Add(g, par, trace.ClassPutDeliver, "put:deliver:interrupt", 0, m.Env.Now(), m.Env.Now()+d)
		}
		m.Env.After(d, fn)
	default:
		m.Stats.Deferrals++
		if tr != nil && g >= 0 {
			// The deferral window is open-ended until the target's next RMA
			// call drains it; record arrival now and close at actual delivery.
			at := m.Env.Now()
			inner := fn
			fn = func() {
				tr.Add(g, par, trace.ClassPutDeliver, "put:deliver:deferred", 0, at, m.Env.Now())
				inner()
			}
		}
		ep.pending = append(ep.pending, deferred{fn, fr})
	}
	return true
}

// Put is PutT from a process body: it returns after the origin CPU overhead
// (and, for a loopback put, the shared-memory copy).
func (ep *Endpoint) Put(p *sim.Proc, target *Endpoint, dst, src []byte, origin, tgt, compl *Counter) {
	ep.PutT(&p.Task, target, dst, src, origin, tgt, compl, p.Resume())
	p.Park()
}

// putRemote runs the post-overhead leg of a remote put: it takes a frame
// for the put and sends its first transmission (reliable.go). Everything from
// here on is event callbacks: no task blocks.
func (ep *Endpoint) putRemote(target *Endpoint, par int, dst, src []byte, origin, tgt, compl *Counter) {
	d := ep.dom
	m := d.m
	fr := d.frame()
	if d.wire == wireUndecided {
		d.decide()
	}
	// The adapter reads the origin buffer at injection, so the bytes are taken
	// now: callers may reuse the buffer once the origin counter fires. On the
	// clean wire they go straight to dst, since the one landing will find them
	// there and the target reads nothing before its counter fires. Elsewhere
	// they go to a snapshot from the machine's buffer pool, which each landing
	// copies out and the frame returns after the last one (neither copy is
	// charged: the DMA is what the wire's timing already accounts for).
	if len(src) > 0 {
		if d.wire == wireDirect {
			copy(dst, src)
		} else {
			fr.snap = m.Buffers.Get(len(src))
			copy(fr.snap, src)
			d.tally.Snapshots++
			if d.wire == wireChecked {
				fr.issued = m.Env.Now()
				for i := range dst {
					dst[i] = windowPoison
				}
			}
		}
	}
	fr.src, fr.target, fr.n = ep, target, len(src)
	fr.dst, fr.origin, fr.tgt, fr.compl = dst, origin, tgt, compl
	fr.g, fr.par = m.Env.Trace.NewGroup(), par
	if d.reliable {
		fr.ch = ep.channel(target.Rank)
		fr.seq = fr.ch.next
		fr.ch.next++
	}
	d.tally.Puts++
	fr.refs = 1 // the put's own, while it sends: a dropped first transmission may schedule nothing
	fr.send()
	fr.unref()
}

// PutZero is PutZeroT from a process body.
func (ep *Endpoint) PutZero(p *sim.Proc, target *Endpoint, tgt *Counter) {
	ep.PutZeroT(&p.Task, target, tgt, p.Resume())
	p.Park()
}

// WaitValueT waits until the counter reaches v, subtracts v and runs k, like
// WaitcntrT but without touching any endpoint's dispatcher state. Helper
// tasks that share a rank's endpoint (e.g. the broadcast side of the fused
// allreduce pipeline) use it so the rank's RMA-call bookkeeping stays
// consistent.
func (c *Counter) WaitValueT(t *sim.Task, v int, k func()) {
	if c.val >= v {
		c.val -= v
		k()
		return
	}
	fr := cntrFramePool.Get().(*cntrFrame)
	fr.c, fr.t, fr.v, fr.k = c, t, v, k
	fr.park()
}

// drainFrame is a pooled continuation frame for drainPending: the resume
// continuation is bound once per frame, so draining deferred deliveries —
// the common case for masters running with interrupts off — allocates
// nothing per delivery. A task parks or sleeps on one thing at a time and
// stale waiters are dropped on interrupt, so a frame is referenced only
// between its arm and its resume.
type drainFrame struct {
	ep       *Endpoint
	t        *sim.Task
	k        func()
	cur      deferred // delivery being serviced during the current sleep
	stepFn   func()
	unwindFn func()
}

var drainFramePool = sync.Pool{New: func() any { return new(drainFrame) }}

func (fr *drainFrame) step() {
	if fr.cur.fn != nil {
		fn := fr.cur.fn
		fr.cur = deferred{}
		fn()
	}
	ep := fr.ep
	if len(ep.pending) == 0 {
		k := fr.k
		fr.t.PopUnwind()
		fr.release()
		k()
		return
	}
	fr.cur = ep.pending[0]
	ep.pending = ep.pending[1:]
	fr.t.SleepThen(ep.dom.m.Cfg.RecvOverhead, fr.stepFn)
}

// unwind runs when a kill or an interrupt takes the task away in the middle
// of the drain. The delivery it was servicing is out of the pending list and
// nobody is left to land it: a put among them is told, as by MarkDead.
func (fr *drainFrame) unwind() {
	if fr.cur.fr != nil {
		fr.cur.fr.discard()
	}
	fr.release()
}

func (fr *drainFrame) release() {
	*fr = drainFrame{stepFn: fr.stepFn, unwindFn: fr.unwindFn}
	drainFramePool.Put(fr)
}

// drainPending services deferred deliveries from inside an RMA call — the
// calling task's CPU pays the receive overhead for each — then runs k.
func (ep *Endpoint) drainPending(t *sim.Task, k func()) {
	if len(ep.pending) == 0 {
		k()
		return
	}
	fr := drainFramePool.Get().(*drainFrame)
	if fr.stepFn == nil {
		// Bound once per frame, reused across the pool.
		fr.stepFn, fr.unwindFn = fr.step, fr.unwind
	}
	fr.ep, fr.t, fr.k = ep, t, k
	if t.UnwindArmed() {
		t.PushUnwind(fr.unwindFn)
	}
	fr.step()
}

// cntrFrame is the pooled frame of a counter wait (WaitcntrT, and WaitValueT
// with ep nil). Parked, it is the wait itself
// (sim.WaitFrame): the Task holds it as one interface value, so a counter
// wait — the inner loop of the put/credit protocols — binds no predicate or
// continuation closure, and a frame the pool could not supply costs one
// allocation.
type cntrFrame struct {
	ep *Endpoint // inside an RMA call for the wait's duration; nil for WaitValueT
	c  *Counter
	t  *sim.Task
	v  int
	id int // open trace span while parked
	k  func()

	unwindFn func() // fr.unwind, bound once per frame
}

var cntrFramePool = sync.Pool{New: func() any { return new(cntrFrame) }}

// enter puts the endpoint inside the RMA call and waits for the counter.
func (fr *cntrFrame) enter() {
	fr.ep.inCall = true
	// A crash or fault-tolerance interrupt can abandon the wait, and a stuck
	// inCall=true would make every later delivery to this (possibly
	// surviving) task look like a poll.
	if fr.t.UnwindArmed() {
		if fr.unwindFn == nil {
			fr.unwindFn = fr.unwind
		}
		fr.t.PushUnwind(fr.unwindFn)
	}
	if fr.c.val >= fr.v {
		fr.finish()
		return
	}
	fr.park()
}

func (fr *cntrFrame) park() {
	c := fr.c
	fr.id = c.env.Trace.Begin(fr.t.Track(), c.wcl, c.wcl.String(), 0)
	c.cond.WaitFrameT(fr.t, c, fr.v, fr)
}

func (fr *cntrFrame) Ready() bool { return fr.c.val >= fr.v }

func (fr *cntrFrame) Resume() {
	fr.c.env.Trace.End(fr.id)
	fr.finish()
}

// finish consumes the counter and leaves the RMA call: subtract, clear inCall,
// discard the compensation, resume.
func (fr *cntrFrame) finish() {
	ep, c, t, v, k := fr.ep, fr.c, fr.t, fr.v, fr.k
	fr.release()
	c.val -= v
	if ep != nil {
		ep.inCall = false
		t.PopUnwind()
	}
	k()
}

// unwind restores inCall when a fault-tolerance interrupt abandons the
// wait; the waiter entry is already dropped, so the frame recycles here.
func (fr *cntrFrame) unwind() {
	ep := fr.ep
	fr.release()
	ep.inCall = false
}

func (fr *cntrFrame) release() {
	*fr = cntrFrame{unwindFn: fr.unwindFn}
	cntrFramePool.Put(fr)
}

// WaitcntrT waits until the counter reaches v, subtracts v and runs k,
// LAPI-style. Deferred deliveries are serviced first; then the task counts as
// "inside an RMA call" — the dispatcher polls, so arriving messages are
// delivered without interrupts — from the moment the wait arms until k is
// about to run. With nothing to drain and the counter already there, the
// call begins and ends in one step and needs no frame.
func (ep *Endpoint) WaitcntrT(t *sim.Task, c *Counter, v int, k func()) {
	if len(ep.pending) == 0 && c.val >= v {
		c.val -= v
		k()
		return
	}
	fr := cntrFramePool.Get().(*cntrFrame)
	fr.ep, fr.c, fr.t, fr.v, fr.k = ep, c, t, v, k
	if len(ep.pending) == 0 {
		fr.enter() // the common case binds no method value
		return
	}
	ep.drainPending(t, fr.enter)
}

// ProbeT gives the dispatcher one progress opportunity without waiting for
// anything (the equivalent of calling into LAPI without waiting), then runs k.
func (ep *Endpoint) ProbeT(t *sim.Task, k func()) { ep.drainPending(t, k) }

// putFrame is the pooled continuation frame for PutT: the post-overhead
// injection step and the loopback copy completion are bound once per frame,
// so the put fan-outs of a massive-rank run allocate nothing per call.
type putFrame struct {
	ep, target         *Endpoint
	t                  *sim.Task
	dst, src           []byte
	origin, tgt, compl *Counter
	k                  func()
	sendFn             func()
	copyFn             func()
}

var putFramePool = sync.Pool{New: func() any { return new(putFrame) }}

func (fr *putFrame) send() {
	ep, target, t := fr.ep, fr.target, fr.t
	m := ep.dom.m
	if target.Node == ep.Node {
		m.MemcpyT(t, ep.Node, fr.dst, fr.src, fr.copyFn)
		return
	}
	par := -1
	if tr := m.Env.Trace; tr != nil {
		par = tr.Current(t.Track())
	}
	dst, src, origin, tgt, compl, k := fr.dst, fr.src, fr.origin, fr.tgt, fr.compl, fr.k
	fr.release()
	ep.putRemote(target, par, dst, src, origin, tgt, compl)
	k()
}

func (fr *putFrame) copyDone() {
	origin, tgt, compl, k := fr.origin, fr.tgt, fr.compl, fr.k
	fr.release()
	if origin != nil {
		origin.Incr(1)
	}
	if tgt != nil {
		tgt.Incr(1)
	}
	if compl != nil {
		compl.Incr(1)
	}
	k()
}

func (fr *putFrame) release() {
	fr.ep = nil
	fr.target = nil
	fr.t = nil
	fr.dst = nil
	fr.src = nil
	fr.origin = nil
	fr.tgt = nil
	fr.compl = nil
	fr.k = nil
	putFramePool.Put(fr)
}

// PutT issues a non-blocking put of src into dst at the target task. k runs
// once the origin CPU has paid the send overhead (and, for a loopback put, the
// shared-memory copy); the transfer proceeds asynchronously. Counters may be
// nil:
//
//	origin  - incremented when the origin buffer is reusable (injection done)
//	target  - incremented at the target when the data has landed
//	compl   - incremented at the origin when the transaction completed
//
// len(dst) must equal len(src); a zero-byte put carries only counter
// updates, the paper's flow-control acknowledgement.
func (ep *Endpoint) PutT(t *sim.Task, target *Endpoint, dst, src []byte, origin, tgt, compl *Counter, k func()) {
	if len(dst) != len(src) {
		panic("rma: Put length mismatch")
	}
	m := ep.dom.m
	m.Stats.AddPut(len(src))
	fr := putFramePool.Get().(*putFrame)
	if fr.sendFn == nil {
		// Bound once per frame, reused across the pool for its lifetime.
		fr.sendFn = fr.send
		fr.copyFn = fr.copyDone
	}
	fr.ep, fr.target, fr.t = ep, target, t
	fr.dst, fr.src = dst, src
	fr.origin, fr.tgt, fr.compl = origin, tgt, compl
	fr.k = k
	t.SleepThen(m.Cfg.SendOverhead, fr.sendFn)
}

// PutZeroT sends a zero-byte put that only increments the target counter —
// the flow-control ack of §2.4.
func (ep *Endpoint) PutZeroT(t *sim.Task, target *Endpoint, tgt *Counter, k func()) {
	ep.PutT(t, target, nil, nil, nil, tgt, nil, k)
}

// AM is AMT from a process body.
func (ep *Endpoint) AM(p *sim.Proc, target *Endpoint, payload []byte, handler func([]byte)) {
	ep.AMT(&p.Task, target, payload, handler, p.Resume())
	p.Park()
}

// AMT sends an active message: handler runs at the target on arrival (after
// the header-handler cost), following the same delivery rules as Put. The
// payload is passed to the handler by reference; handlers must copy what
// they keep. k runs once the origin CPU has paid the send overhead (plus, for
// an intra-node message, the handler cost).
func (ep *Endpoint) AMT(t *sim.Task, target *Endpoint, payload []byte, handler func([]byte), k func()) {
	m := ep.dom.m
	m.Stats.ActiveMsgs++
	t.SleepThen(m.Cfg.SendOverhead, func() {
		if target.Node == ep.Node {
			t.SleepThen(m.Cfg.AMHandlerCost, func() {
				handler(payload)
				k()
			})
			return
		}
		_, arrival := m.NetInjectTo(ep.Node, target.Node, len(payload))
		m.Env.At(arrival, func() {
			target.deliver(nil, func() {
				m.Env.After(m.Cfg.AMHandlerCost, func() { handler(payload) })
			})
		})
		k()
	})
}

// Get issues a non-blocking get: src at the target is fetched into dst at
// the origin; compl (at the origin) is incremented when the data has
// landed. The request is serviced at the target under the usual delivery
// rules, then the reply is injected from the target's adapter.
func (ep *Endpoint) Get(p *sim.Proc, target *Endpoint, dst, src []byte, compl *Counter) {
	if len(dst) != len(src) {
		panic("rma: Get length mismatch")
	}
	m := ep.dom.m
	m.Stats.AddGet(len(src))
	p.Sleep(m.Cfg.SendOverhead)

	if target.Node == ep.Node {
		m.Memcpy(p, ep.Node, dst, src)
		if compl != nil {
			compl.Incr(1)
		}
		return
	}

	_, reqArrival := m.NetInjectTo(ep.Node, target.Node, 0)
	m.Env.At(reqArrival, func() {
		target.deliver(nil, func() {
			_, replyArrival := m.NetInjectTo(target.Node, ep.Node, len(src))
			m.Env.At(replyArrival, func() {
				copy(dst, src)
				if compl != nil {
					compl.Incr(1)
				}
			})
		})
	})
}

// GetBlocking fetches src at the target into dst and waits for completion.
func (ep *Endpoint) GetBlocking(p *sim.Proc, target *Endpoint, dst, src []byte) {
	c := ep.dom.NewCounter(0)
	ep.Get(p, target, dst, src, c)
	ep.Waitcntr(p, c, 1)
}

// RmwOp selects a LAPI_Rmw-style atomic operation.
type RmwOp int

const (
	FetchAndAdd RmwOp = iota
	Swap
	CompareAndSwap // applies only when the current value equals cmp
)

// Word is a remotely accessible 64-bit word, the target of Rmw operations.
// It lives at one task's endpoint; the dispatcher there applies updates
// atomically in arrival order.
type Word struct {
	Owner *Endpoint
	val   int64
}

// NewWord allocates an RMW word at the endpoint, initialized to v.
func (ep *Endpoint) NewWord(v int64) *Word { return &Word{Owner: ep, val: v} }

// Value returns the current contents (for the owner's local inspection).
func (w *Word) Value() int64 { return w.val }

// Rmw performs an atomic read-modify-write on the remote word (§2.3 lists
// atomic read-modify-write among LAPI's RMA capabilities). The previous
// value is returned once the round trip completes; the calling process
// blocks for it. op semantics: FetchAndAdd adds operand; Swap stores
// operand; CompareAndSwap stores operand only if the value equals cmp.
func (ep *Endpoint) Rmw(p *sim.Proc, w *Word, op RmwOp, operand, cmp int64) int64 {
	m := ep.dom.m
	var prev int64
	apply := func() {
		prev = w.val
		switch op {
		case FetchAndAdd:
			w.val += operand
		case Swap:
			w.val = operand
		case CompareAndSwap:
			if w.val == cmp {
				w.val = operand
			}
		default:
			panic("rma: unknown RmwOp")
		}
	}
	p.Sleep(m.Cfg.SendOverhead)
	if w.Owner.Node == ep.Node {
		// Loopback: the update is a local atomic.
		apply()
		return prev
	}
	done := ep.dom.NewCounter(0)
	_, reqArrival := m.NetInjectTo(ep.Node, w.Owner.Node, headerWord)
	m.Env.At(reqArrival, func() {
		w.Owner.deliver(nil, func() {
			apply()
			_, replyArrival := m.NetInjectTo(w.Owner.Node, ep.Node, headerWord)
			m.Env.At(replyArrival, func() { done.Incr(1) })
		})
	})
	ep.Waitcntr(p, done, 1)
	return prev
}

// headerWord is the wire size of an RMW request or reply.
const headerWord = 16
