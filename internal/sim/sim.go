// Package sim implements a small deterministic discrete-event simulation
// (DES) engine. It has one kind of simulated entity, the Task (task.go): a
// resumable state machine whose steps the event loop runs one at a time, each
// ending in a continuation-passing primitive (SleepThen, Event.WaitT, ...) or
// finishing the task. A Proc is a Task whose body is straight-line code on a
// pooled runtime coroutine (proc_coro.go; Go >= 1.23): every blocking call it
// makes (Sleep, Wait, ...) starts the continuation form on its Task and parks
// the coroutine until the continuation resumes it. Exactly one step or body
// runs at a time, so simulation state needs no locking and every run is fully
// deterministic: events at equal timestamps fire in schedule order.
//
// Time is a float64 in microseconds by convention of this repository.
package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/trace"
)

// Time is a point in (or duration of) virtual time, in microseconds.
type Time = float64

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; call NewEnv.
type Env struct {
	// Trace, when non-nil, records timed spans of simulation activity
	// (see internal/trace). Hooks throughout the machine/rma/core layers
	// call its nil-safe methods, so leaving it nil disables tracing with
	// no allocation or branch cost beyond the nil checks.
	Trace *trace.Trace

	now       Time
	queue     *calQueue
	seq       uint64
	live      int           // spawned tasks (processes included) that have not finished
	tasks     []*Task       // registry of spawned tasks (register); the parked ones have Task.parked set
	idle      []*coro       // coroutines between process bodies, reused LIFO (proc_coro.go)
	resuming  *coro         // the body to switch to once the running step has returned (coro.enter)
	resSeq    int           // id source for conds/events (stall reports)
	failures  []ProcFailure // processes that panicked (recovered)
	free      []*item       // recycled queue items (steady state allocates none)
	processed uint64        // queue items executed so far
	digest    uint64        // the fold of those items (digest.go)

	// What the environment makes once per rank or per pending occurrence comes
	// out of slabs it owns until Release (DESIGN.md §9): tasks, processes, and
	// the queue items the free list could not supply.
	taskMem  bufpool.Chunks[Task]
	procMem  bufpool.Chunks[Proc]
	itemMem  bufpool.Chunks[item]
	procIdle []*Proc // helpers the registry swept out finished, for the next SpawnHelper

	// OnFailure, when non-nil, is called immediately after a failure is
	// recorded — a step or body that panicked, a kill, an interrupt nothing
	// handled — before control returns to the scheduler. Fault-tolerance
	// layers use it to classify deaths and schedule detection. The hook must
	// not block or park; it may schedule callbacks via At/After and inspect
	// simulation state.
	OnFailure func(t *Task, f ProcFailure)
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{queue: newCalQueue()}
}

// Release hands the environment's records — its tasks, processes, queue items
// and calendar — back to the process-level reserve (internal/bufpool) for the next
// environment, which is handed the same memory. Only for a simulation that is
// over and left nothing behind: Live is zero, and the caller drops every *Task
// it holds and never touches the environment again. One that ended with an
// actor still parked (a deadlock, a stall, a crash report that names tasks) is
// not released; its records are the collector's.
func (e *Env) Release() {
	e.taskMem.Release()
	e.procMem.Release()
	e.itemMem.Release()
	e.queue.release()
	e.queue, e.tasks, e.free, e.procIdle = nil, nil, nil, nil // a use after release is a crash, not a step of another run's task
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Events returns the number of queue items (callbacks and process wake-ups)
// executed so far. Perf harnesses use it to derive events/sec.
func (e *Env) Events() uint64 { return e.processed }

// K is a continuation: what a task runs when it resumes, and what a callback
// runs when its time comes. A record that waits passes itself (its pointer
// has the Resume method), and one with a second continuation passes a named
// pointer type of itself: neither conversion allocates, where a method value
// bound to the record is a heap object whenever its memory is fresh.
type K interface{ Resume() }

// Func is a K that calls a closure.
type Func func()

func (f Func) Resume() { f() }

// item is one scheduled occurrence: a callback, a task's resume (taskResume)
// or a condition's broadcast (condBroadcast), told apart by type. Items are
// allocated by the hundred thousand, and a seventh word would move them from
// the 48-byte size class to the 64-byte one (a test holds the size).
type item struct {
	t    Time
	seq  uint64
	next *item // the following item of the same timestamp; the last one's is the first (calendar run)
	k    K
}

// taskResume and condBroadcast are a Task and a Cond as the queue items that
// resume and broadcast them.
type (
	taskResume    Task
	condBroadcast Cond
)

func (r *taskResume) Resume()    { r.env.runTask((*Task)(r)) }
func (b *condBroadcast) Resume() { (*Cond)(b).Broadcast() }

// eventHeap is a (t, seq)-ordered binary min-heap of items, manipulated
// through the heapPush/heapPop primitives in calqueue.go. The calendar
// queue uses it as the far-future overflow store; the calendar property
// tests use it as the reference ordering.
type eventHeap []*item

// push schedules one occurrence, reusing a recycled item if available.
func (e *Env) push(t Time, k K) {
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		it = e.itemMem.New()
	}
	it.t, it.seq, it.k = t, e.seq, k
	e.seq++
	e.queue.push(it)
}

// recycle returns an executed item to the free list.
func (e *Env) recycle(it *item) {
	it.k = nil
	e.free = append(e.free, it)
}

// At schedules fn to run at absolute time t (clamped to now).
func (e *Env) At(t Time, fn func()) { e.AtK(t, Func(fn)) }

// AtK schedules k to resume at absolute time t (clamped to now).
func (e *Env) AtK(t Time, k K) {
	if t < e.now {
		t = e.now
	}
	e.push(t, k)
}

// After schedules fn to run d from now.
func (e *Env) After(d Time, fn func()) { e.AtK(e.now+d, Func(fn)) }

// AfterK schedules k to resume d from now.
func (e *Env) AfterK(d Time, k K) { e.AtK(e.now+d, k) }

// WaitDescriber describes what a parked process is waiting for; the
// description is only rendered if the wait lands in a stall or deadlock
// report, so implementations may format freely. want carries the awaited
// value recorded at park time (negative: no specific value).
type WaitDescriber interface {
	DescribeWait(want int) string
}

// waitable is a synchronization resource a task can park on (an Event or a
// Cond); waitID is the lazily formatted id or label used in wait-graph
// reports. dropWaiter removes a task from the resource's waiter list without
// waking it — Env.Kill, Env.Interrupt and failure teardown use it so the task
// does not linger as a stale waiter (which would cause spurious wakes or
// double entries when it parks somewhere else).
type waitable interface {
	waitID() string
	dropWaiter(t *Task)
}

// Proc is a simulated process: a Task whose body is straight-line code. The
// body runs on a pooled coroutine (proc_coro.go), and each of its blocking
// calls — Sleep and Wait here, Cond.Wait, and every X(p, ...) of the layers
// above — is the same shim over the continuation form: start XT on the
// process's own Task, passing Resume(), then Park(). The protocol steps in
// between run on the event loop like any Task's; only getting back to the
// body switches coroutines. Blocking methods must only be called from the
// body, on the process they are given.
//
// A process's unwind stack is armed for its whole life: what the blocking
// primitives used to restore by defer (dispatcher inCall, spinner counts,
// open spans) their continuation forms push there, and a kill, an interrupt
// or a panicking step runs it before the failure is raised in the body.
type Proc struct {
	Task
	body Body  // what the process runs, until the first step starts it
	co   *coro // the coroutine the body runs on, from start to finish
	uw   [2]K  // where the unwind stack starts: a collective's executor and the wait it is in need two
}

// Body is what a process runs. A record that runs as a process passes itself
// (its pointer has the Run method), where a closure over the record would be a
// heap object of its own.
type Body interface{ Run(p *Proc) }

// bodyFunc is a Body that calls a closure.
type bodyFunc func(*Proc)

func (f bodyFunc) Run(p *Proc) { f(p) }

// Spawn creates a process that will start running fn at the current virtual
// time (after already-scheduled events at this timestamp).
//
// A panic inside fn does not kill the host program: it is recovered,
// recorded as a ProcFailure (see Env.Failures), and the process counts as
// finished. Run surfaces recorded failures as a *CrashError.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	return e.SpawnBody(name, -1, bodyFunc(fn))
}

// SpawnIndexed is Spawn with the name prefix+itoa(num), formatted lazily:
// per-operation helper processes (rank bodies, isend/irecv helpers) are
// spawned on hot paths where the name is read only by failure reports.
func (e *Env) SpawnIndexed(prefix string, num int, fn func(*Proc)) *Proc {
	return e.SpawnBody(prefix, num, bodyFunc(fn))
}

// SpawnBody is SpawnIndexed with the body as a value (num < 0: prefix alone
// names the process). The process is carved from a slab of the environment's,
// as a task is, and its record lasts as long as the environment.
func (e *Env) SpawnBody(prefix string, num int, b Body) *Proc {
	return e.spawnProc(prefix, num, b, false)
}

// SpawnHelper is SpawnBody for a per-operation helper that nobody keeps a
// handle to. Once its body has returned and the registry has swept it out
// (register), its record carves the next helper, so a run that spawns helpers
// without end holds the records of about as many as the registry does. A
// helper that failed is never reused: its failure names it.
func (e *Env) SpawnHelper(prefix string, num int, b Body) {
	e.spawnProc(prefix, num, b, true)
}

func (e *Env) spawnProc(prefix string, num int, b Body, recycle bool) *Proc {
	var p *Proc
	if n := len(e.procIdle); n > 0 {
		p = e.procIdle[n-1]
		e.procIdle[n-1] = nil
		e.procIdle = e.procIdle[:n-1]
		*p = Proc{}
	} else {
		p = e.procMem.New()
	}
	p.body = b
	p.Task = Task{env: e, prefix: prefix, num: int32(num), track: -1, start: startBody, proc: p, unwindArmed: true, recycle: recycle, unwinds: p.uw[:0]}
	e.admit(&p.Task)
	return p
}

// Crashed is the failure cause of a task killed by Env.Kill; a process's body
// sees it as a panic at the call it was blocked in.
type Crashed struct{ Reason string }

func (c Crashed) Error() string { return "sim: process crashed: " + c.Reason }

// Kill schedules an injected crash of t: the task dies with a Crashed failure
// the next time it would run (immediately at the current virtual time if it
// is parked). Killing a finished or already-killed task is a no-op. Kill is
// called from event callbacks, not from t's own steps.
func (e *Env) Kill(t *Task, reason string) {
	if t.done || t.killed() {
		return
	}
	if reason == "" {
		reason = "killed"
	}
	t.pending = kill{reason}
	e.unpark(t) // deliver the crash now instead of never
	// A task that was not parked is sleeping (or not yet started) and its
	// queued resume delivers the crash.
}

// Interrupt delivers an asynchronous interrupt to t: the pending continuation
// is abandoned, and the next time the task would run (immediately at the
// current virtual time if it is parked) its OnInterrupt handler runs as a
// step, or — absent one — the unwind stack runs and the task dies with the
// payload as the cause. For a process that death is a panic raised in the
// body at the call it was blocked in, so unlike Kill the process is expected
// to survive: a recover along its stack (the fault-tolerant collective
// wrapper) turns the unwind into a structured error. A parked task is first
// removed from the waiter list of the resource it parked on, so no stale
// entry remains; one that has not started yet takes the interrupt at its
// first resume after the start. Interrupting a finished, killed, or
// already-interrupted task is a no-op, as is a nil payload. Like Kill,
// Interrupt is called from event callbacks.
func (e *Env) Interrupt(t *Task, payload any) {
	if t.done || t.pending != nil || payload == nil {
		return
	}
	t.pending = payload
	e.unpark(t)
	// A task that was not parked is sleeping (or running to its next
	// suspension) and its next resume delivers the interrupt.
}

// SetSlowdown stretches t's subsequent sleep durations by factor, modeling a
// task that lost its CPU (stall windows in fault plans). Factor 0 or 1 clears
// the stall. Called from event callbacks.
func (e *Env) SetSlowdown(t *Task, factor float64) {
	if factor < 0 {
		factor = 0
	}
	t.slow = factor
}

// ProcFailure records a task that died; Cause is the recovered panic value,
// a Crashed for injected crashes, or the payload of an unhandled interrupt.
type ProcFailure struct {
	Proc  string
	Actor *Task // the task that failed (a process's own)
	Time  Time
	Cause any
}

// CrashError is returned by Run when one or more processes panicked.
type CrashError struct{ Failures []ProcFailure }

func (c *CrashError) Error() string {
	parts := make([]string, len(c.Failures))
	for i, f := range c.Failures {
		parts[i] = fmt.Sprintf("%s at t=%.3f: %v", f.Proc, f.Time, f.Cause)
	}
	return "sim: " + fmt.Sprintf("%d process(es) crashed: ", len(c.Failures)) + strings.Join(parts, "; ")
}

// Failures returns the processes that panicked so far, in crash order.
func (e *Env) Failures() []ProcFailure {
	return append([]ProcFailure(nil), e.failures...)
}

// Live returns the number of spawned processes that have not finished.
func (e *Env) Live() int { return e.live }

// Sleep advances the process by d virtual time (negative d counts as zero).
// An active slowdown (Env.SetSlowdown) stretches d.
func (p *Proc) Sleep(d Time) {
	p.SleepK(d, p.Resume())
	p.Park()
}

// BlockedProc is a snapshot of one process blocked with no scheduled
// wake-up: its name, when it parked, and what it waits on.
type BlockedProc struct {
	Name     string
	Since    Time   // virtual time the process parked
	Resource string // id or label of the cond/event/resource waited on
	Waiting  string // human-readable wait context
}

// Blocked returns a snapshot of every parked process and task, sorted by
// name. It is valid at any point the scheduler is in control (between
// events, after Run or RunUntil return) and backs stall and deadlock
// reports.
func (e *Env) Blocked() []BlockedProc {
	var out []BlockedProc
	for _, t := range e.tasks {
		if !t.parked {
			continue
		}
		b := BlockedProc{Name: t.Name(), Since: t.waitSince}
		if t.waitOn != nil {
			b.Resource = t.waitOn.waitID()
		}
		if t.waitObj != nil {
			b.Waiting = t.waitObj.DescribeWait(t.waitWant)
		} else {
			b.Waiting = b.Resource
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// nextResNum assigns a deterministic sequence number to a synchronization
// resource; the "kind#N" id string is only formatted if a report asks.
func (e *Env) nextResNum() int {
	e.resSeq++
	return e.resSeq
}

// Event is a one-shot occurrence processes can wait on. After Trigger,
// waiting is a no-op. The zero value is not usable; use Env.NewEvent or Init.
type Event struct {
	env     *Env
	num     int          // sequence for the default id
	label   fmt.Stringer // from NamedBy; nil: the default id
	done    bool
	waiters taskList
}

// NewEvent returns an untriggered event.
func (e *Env) NewEvent() *Event {
	ev := new(Event)
	ev.Init(e)
	return ev
}

// Init binds a zero Event to the environment, drawing its report id exactly
// as NewEvent does, so that events can live in an array of their owner's.
func (ev *Event) Init(e *Env) { ev.env, ev.num = e, e.nextResNum() }

// NamedBy sets the label stall reports name the event by and returns ev: the
// label is formatted only if a report reads it.
func (ev *Event) NamedBy(label fmt.Stringer) *Event { ev.label = label; return ev }

// ID returns the event's id or label.
func (ev *Event) ID() string {
	if ev.label != nil {
		return ev.label.String()
	}
	return "event#" + strconv.Itoa(ev.num)
}

func (ev *Event) waitID() string { return ev.ID() }

func (ev *Event) dropWaiter(t *Task) { ev.waiters.drop(t) }

// Done reports whether the event has been triggered.
func (ev *Event) Done() bool { return ev.done }

// Trigger fires the event at the current virtual time, waking all waiters.
// Triggering an already-done event is a no-op.
func (ev *Event) Trigger() {
	if ev.done {
		return
	}
	ev.done = true
	ev.waiters.wakeAll(ev.env)
}

// Wait blocks the process until the event has been triggered.
func (p *Proc) Wait(ev *Event) {
	ev.WaitK(&p.Task, p.Resume())
	p.Park()
}

// Cond is a broadcast-style condition: Wait blocks until the next Broadcast.
// Unlike Event it can be signalled repeatedly. A Cond may be embedded by
// value in the object it guards (shm.Flag, rma.Counter) and bound with Init,
// so the object and its condition are one allocation; it must not be copied
// once in use.
type Cond struct {
	env     *Env
	num     int    // sequence for the default id
	id      string // the formatted id, cached
	waiters taskList
}

// NewCond returns a condition bound to the environment.
func (e *Env) NewCond() *Cond {
	c := new(Cond)
	c.Init(e)
	return c
}

// Init binds a zero Cond to the environment, drawing its report id exactly
// as NewCond does.
func (c *Cond) Init(e *Env) { c.env, c.num = e, e.nextResNum() }

// ID returns the condition's id or label.
func (c *Cond) ID() string {
	if c.id == "" {
		c.id = "cond#" + strconv.Itoa(c.num)
	}
	return c.id
}

func (c *Cond) waitID() string { return c.ID() }

func (c *Cond) dropWaiter(t *Task) { c.waiters.drop(t) }

// Wait blocks the process until the next Broadcast.
func (c *Cond) Wait(p *Proc) { c.WaitOn(p, nil, -1) }

// WaitOn is Wait with a description of what the process waits for: a
// WaitDescriber plus the awaited value, formatted only if the wait lands in a
// stall or deadlock report.
func (c *Cond) WaitOn(p *Proc, obj WaitDescriber, want int) {
	c.WaitOnT(&p.Task, obj, want, p.Resume())
	p.Park()
}

// Broadcast wakes every currently waiting task at the current time, in wait
// order.
func (c *Cond) Broadcast() { c.waiters.wakeAll(c.env) }

// BroadcastAfter schedules a Broadcast d from now (negative counts as zero).
// The queue item names the condition itself, so a flag store that wakes its
// spinners after a latency binds no closure.
func (c *Cond) BroadcastAfter(d Time) {
	if d < 0 {
		d = 0
	}
	c.env.push(c.env.now+d, (*condBroadcast)(c))
}

// WaitUntil blocks the process until pred() holds, re-checking after every
// Broadcast of c. It evaluates pred immediately first.
func (c *Cond) WaitUntil(p *Proc, pred func() bool) {
	for !pred() {
		c.Wait(p)
	}
}

// DeadlockError is returned by Run when processes remain blocked after the
// event queue drains. Beyond the blocked names it carries per-process wait
// context (Procs) and a wait-graph snapshot mapping each resource to the
// processes parked on it, so a silent hang reads as a structured report.
type DeadlockError struct {
	Time      Time
	Blocked   []string            // blocked process names, sorted
	Procs     []BlockedProc       // per-process wait context, sorted by name
	WaitGraph map[string][]string // resource id/label -> waiting process names
}

func (d *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%.3f: %d blocked: %s",
		d.Time, len(d.Blocked), strings.Join(d.Blocked, ", "))
	for _, p := range d.Procs {
		fmt.Fprintf(&b, "\n  %s: waiting on %s (blocked since t=%.3f)", p.Name, p.Waiting, p.Since)
	}
	return b.String()
}

// deadlock builds the structured report from the current parked set.
func (e *Env) deadlock() *DeadlockError {
	procs := e.Blocked()
	d := &DeadlockError{Time: e.now, Procs: procs, WaitGraph: make(map[string][]string)}
	for _, p := range procs {
		d.Blocked = append(d.Blocked, p.Name)
		res := p.Resource
		if res == "" {
			res = "(unknown)"
		}
		d.WaitGraph[res] = append(d.WaitGraph[res], p.Name)
	}
	return d
}

// Run executes events until the queue is empty. If any process panicked it
// returns a *CrashError; otherwise, if live processes remain blocked, a
// *DeadlockError naming them.
func (e *Env) Run() error { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// limit).
//
// Limit semantics: when the limit stops the run early, RunUntil normally
// returns nil — events beyond the limit may still make progress, and the
// caller can resume with another RunUntil or Run call, or inspect parked
// processes via Blocked. However, if every remaining queued event is
// impotent (a wake-up of an already-finished process) while live processes
// remain blocked, no amount of further running can wake them, and RunUntil
// returns a *DeadlockError instead of nil. Pending callbacks are
// conservatively treated as able to make progress, since they may trigger
// events or broadcast conditions.
//
// Process panics recovered during the run surface as a *CrashError, which
// takes precedence over deadlock reporting (the crash is the root cause).
//
// A runtime.Goexit inside a process body (t.Fatal from a rank function) ends
// the goroutine that called RunUntil; see proc_coro.go.
func (e *Env) RunUntil(limit Time) error {
	defer e.stopIdle() // no idle coroutine outlives the run that used it
	for e.drain(limit) {
	}
	if len(e.failures) > 0 {
		return &CrashError{Failures: e.Failures()}
	}
	if e.queue.Len() > 0 {
		// The limit stopped the run with events still queued.
		if e.live > 0 && !e.anyPotentialProgress() {
			return e.deadlock()
		}
		return nil
	}
	if e.live > 0 {
		return e.deadlock()
	}
	return nil
}

// drain executes the queue items due by limit. A task step that panics ends
// it early: the panic is delivered to the task as a failure and drain reports
// true, for the caller to carry on. The one recover here serves every step, so
// a step costs no defer of its own; the panic of a plain callback is not a
// task's and goes on to the caller of RunUntil.
func (e *Env) drain(limit Time) (again bool) {
	var stepping *Task // the task whose step is running
	defer func() {
		if stepping == nil {
			return
		}
		if r := recover(); r != nil {
			e.failTask(stepping, r)
			again = true
		}
	}()
	for {
		it := e.queue.popDue(limit)
		if it == nil {
			return false
		}
		e.now = it.t
		e.processed++
		// Recycle before executing so callbacks can reuse the slot; the
		// fields are copied out first.
		k, s := it.k, Step{T: it.t, Seq: it.seq}
		e.recycle(it)
		var t *Task
		var tgt any
		switch x := k.(type) {
		case *taskResume:
			t = (*Task)(x)
			s.Kind, s.ID, tgt = StepTask, t.num, t
		case *condBroadcast:
			s.Kind, s.ID, tgt = StepCond, int32(x.num), (*Cond)(x)
		}
		e.fold(s)
		if observe != nil {
			observe(e, s, tgt)
		}
		if t != nil {
			stepping = t
			e.runTask(t)
			stepping = nil
		} else {
			k.Resume()
		}
		if co := e.resuming; co != nil {
			e.resuming = nil
			co.next()
		}
	}
}

// DeadlockReport builds a structured report of the currently blocked
// processes, or nil when no live processes remain. Fault-tolerant drivers
// use it after filtering expected crashes out of a *CrashError to decide
// whether the survivors actually deadlocked.
func (e *Env) DeadlockReport() *DeadlockError {
	if e.live == 0 {
		return nil
	}
	return e.deadlock()
}

// Idle reports whether no queued event can still change simulation state
// (every remaining item is a wake-up of an already-finished process).
func (e *Env) Idle() bool { return !e.anyPotentialProgress() }

// anyPotentialProgress reports whether any queued event could still change
// simulation state: a callback or broadcast (opaque, assumed potent) or a
// wake-up of a process or task that has not finished.
func (e *Env) anyPotentialProgress() bool {
	potent := false
	e.queue.forEach(func(it *item) bool {
		switch x := it.k.(type) {
		case *taskResume:
			potent = !x.done
		default:
			potent = true
		}
		return !potent
	})
	return potent
}
