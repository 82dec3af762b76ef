package sim

import (
	"slices"
	"strconv"
)

// Task is the simulator's one actor: a resumable state machine driven
// directly by the event loop. It costs one small struct, and suspending it is
// a pointer store, so simulations scale to tens of thousands of ranks. Every
// protocol below internal/core is written once, for Tasks; a Proc is a Task
// with a coroutine beside it for a straight-line body (sim.go), and costs a
// goroutine stack plus a coroutine switch there and back whenever the body
// has to be returned to.
//
// A Task is written in continuation-passing style. Each step runs to
// completion inside the event loop and must end in exactly one of three
// ways: suspend by calling a blocking primitive (SleepThen, Cond.WaitT,
// Event.WaitT, ...) as its final action, or fall off the end, which
// finishes the task. Blocking primitives take the continuation to run
// on resume; calling one anywhere but the tail of a step is a bug (the rest
// of the step would run before the wait completes in virtual time).
//
// A resumed Task is an ordinary queue item, ordered by (time, sequence
// number) like every other occurrence.
type Task struct {
	// The wake path, on the first cache line: what a resume, a park and a
	// wake-up read and write.
	env      *Env
	k        K        // continuation to run at the next resume; before the first, the start (startFunc, or SpawnTaskK's K)
	waitOn   waitable // what the task is parked on, if anything
	waitNext *Task    // next waiter of the resource parked on (taskList)
	parked   bool     // suspended on a waitable with no scheduled wake-up
	done     bool
	started  bool  // the first step has run
	recycle  bool  // a helper's record, reused once it finished cleanly and left the registry (SpawnTaskK)
	num      int32 // index appended to prefix; -1 when prefix is the name
	track    int32 // trace track id, or -1 when untracked

	// Wait context, read by stall reports while the task is parked. A
	// wake-up leaves it in place rather than clearing it: an armed predicate
	// wait parks again with the same context.
	waitWant  int32
	waitObj   WaitDescriber
	waitSince Time

	// Armed predicate wait (Cond.WaitFrameT): every wake-up asks the frame
	// whether its condition holds and parks again on the same Cond (waitOn)
	// if not, so the hottest protocol loops (flag spins, counter waits)
	// re-check and re-park without a continuation of their own.
	wait WaitFrame

	prefix string    // full name, or name prefix when num >= 0
	side   *TaskSide // what most tasks never need; nil until the first of it is (cold)
}

// TaskSide is the part of a Task that most tasks never touch: a stall window's
// stretch, a pending crash or interrupt, an interrupt handler, an armed unwind
// stack, the process the task is the actor of, and the name once formatted. A
// task carves it from its environment's slabs the first time it needs one of
// them (Task.cold), and it goes back with them when the run is released; a
// process holds its own (Proc.own). A 65,536-rank collective run without
// faults carves none.
type TaskSide struct {
	name    string  // cached formatted name (Name)
	slow    float64 // sleep stretch factor (stall windows); 0 or 1 = none
	crash   error   // an injected crash's Crashed (Env.Kill), delivered at next resume; nil when none
	pending any     // an interrupt payload, delivered at next resume

	// onInterrupt, when non-nil, handles an Env.Interrupt delivery: the
	// pending continuation is discarded and the handler runs as a step (it
	// may re-arm waits or reschedule to survive, the CPS analogue of a
	// recover along a Proc's stack). A task without a handler dies with the
	// payload recorded as its failure cause.
	onInterrupt Interrupter

	// Unwind stack: primitives that hold protocol state across a suspension
	// (dispatcher inCall, spinner counts, open trace spans) push the
	// compensation that restores it, and an interrupt or failure delivery
	// runs the stack LIFO — what a defer would do if the primitive had a
	// stack to unwind. It is armed for a Proc's whole life and, on a plain
	// task, inside fault-sensitive operations; disarmed (the default),
	// Push/Pop are no-ops so the fault-free hot paths pay a nil check.
	unwinds     []K
	unwindArmed bool

	proc *Proc // the process this task is the actor of: its body is parked on a coroutine between steps; nil for a plain task
}

// cold returns the task's side record, carving it on first use.
func (t *Task) cold() *TaskSide {
	if t.side == nil {
		t.side = t.env.sideMem.New()
	}
	return t.side
}

// Proc returns the process the task is the actor of, nil for a plain task.
func (t *Task) Proc() *Proc {
	if s := t.side; s != nil {
		return s.proc
	}
	return nil
}

// pending returns the task's undelivered interrupt, nil when none.
func (t *Task) pending() any {
	if s := t.side; s != nil {
		return s.pending
	}
	return nil
}

// SetOnInterrupt installs h as the task's interrupt handler (nil removes it):
// an Env.Interrupt delivery discards the pending continuation and runs h as a
// step, which may re-arm waits or reschedule to survive. A task without a
// handler dies with the payload recorded as its failure cause.
func (t *Task) SetOnInterrupt(h Interrupter) {
	if h == nil && t.side == nil {
		return
	}
	t.cold().onInterrupt = h
}

// Interrupter handles an interrupt delivery (Task.SetOnInterrupt).
type Interrupter interface{ Interrupted(payload any) }

// killed reports whether an injected crash is pending on the task.
func (t *Task) killed() bool { return t.side != nil && t.side.crash != nil }

// taskList is the FIFO of tasks parked on one resource, threaded through
// Task.waitNext: a task parks on at most one thing, so the link lives in
// the task and a resource nobody waits on costs two nil words.
type taskList struct{ head, tail *Task }

func (l *taskList) add(t *Task) {
	if l.tail == nil {
		l.head = t
	} else {
		l.tail.waitNext = t
	}
	l.tail = t
}

// drop unlinks t, leaving the order of the others intact; no-op when t is
// not on the list.
func (l *taskList) drop(t *Task) {
	var prev *Task
	for w := l.head; w != nil; prev, w = w, w.waitNext {
		if w != t {
			continue
		}
		if prev == nil {
			l.head = t.waitNext
		} else {
			prev.waitNext = t.waitNext
		}
		if l.tail == t {
			l.tail = prev
		}
		t.waitNext = nil
		return
	}
}

// wakeAll empties the list and wakes its tasks in wait order. Waking only
// schedules a resume item — no task code runs here — and the list is
// detached first, so a task that parks again from its resume step joins a
// fresh list and waits for the next wake-up.
func (l *taskList) wakeAll(e *Env) {
	t := l.head
	l.head, l.tail = nil, nil
	for t != nil {
		next := t.waitNext
		t.waitNext = nil
		e.unblockTask(t)
		t = next
	}
}

// SpawnTask creates a task that will start running fn at the current
// virtual time (after already-scheduled events at this timestamp). The name
// is prefix+itoa(num), formatted lazily; pass num < 0 to use prefix alone.
//
// A panic inside a task step is recovered, recorded as a ProcFailure (see
// Env.Failures), and finishes the task.
func (e *Env) SpawnTask(prefix string, num int, fn func(*Task)) *Task {
	t := e.taskMem.New()
	t.env, t.prefix, t.num, t.track, t.k = e, prefix, int32(num), -1, startFunc(fn)
	e.admit(t)
	return t
}

// startFunc is a task's first step as SpawnTask takes it, held in Task.k until
// the step runs: the step is given its task, which no K is.
type startFunc func(*Task)

func (startFunc) Resume() { panic("sim: a task's start function resumed without its task") }

// SpawnTaskK spawns a per-operation helper task whose first step is a
// continuation: k resumes where SpawnTask's fn would be called, so a record
// that starts a helper passes itself instead of a closure or a method value
// bound to it, and learns its task from the result before the first step runs.
// Nobody may keep the task once it has finished: its record carves the next
// helper once the registry has swept it out (register), so a run that spawns
// helpers without end holds the records of about as many as the registry does,
// and a caller still holding the old *Task holds the new one. A helper that
// failed is never reused: its failure names it.
func (e *Env) SpawnTaskK(prefix string, num int, k K) *Task {
	var t *Task
	if n := len(e.taskIdle); n > 0 {
		t = e.taskIdle[n-1]
		e.taskIdle[n-1] = nil
		e.taskIdle = e.taskIdle[:n-1]
		side := t.side
		*t = Task{}
		if side != nil { // the last helper's side record, kept for the next that needs one
			*side = TaskSide{unwinds: side.unwinds[:0]}
			t.side = side
		}
	} else {
		t = e.taskMem.New()
	}
	t.env, t.prefix, t.num, t.track, t.k, t.recycle = e, prefix, int32(num), -1, k, true
	e.admit(t)
	return t
}

// ReserveTasks makes room in the registry for n more tasks, for a caller about
// to spawn that many (a run's ranks): growing it by doubling instead leaves
// about as much again behind for the collector.
func (e *Env) ReserveTasks(n int) { e.tasks = slices.Grow(e.tasks, n) }

// admit counts a new task live, registers it and schedules its first step.
func (e *Env) admit(t *Task) {
	e.live++
	e.register(t)
	e.push(e.now, (*taskResume)(t))
}

// register appends t to the registry of spawned tasks, which is what stall and
// deadlock reports walk: parking and waking touch only the task's own parked
// flag. When the registry fills, finished tasks are swept out before it grows,
// so a run that spawns short-lived helpers forever holds only the live ones,
// and a swept helper's record is free for the next SpawnTaskK.
func (e *Env) register(t *Task) {
	reg := e.tasks
	if n := len(reg); n == cap(reg) && n > 0 {
		live := reg[:0]
		for _, a := range reg {
			switch {
			case !a.done:
				live = append(live, a)
			case a.recycle:
				e.taskIdle = append(e.taskIdle, a)
			}
		}
		clear(reg[len(live):])
		if len(live) > n/2 {
			// Mostly live: double, so the next sweep is as far away again.
			live = append(make([]*Task, 0, 2*n), live...)
		}
		reg = live
	}
	e.tasks = append(reg, t)
}

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.env.now }

// Env returns the environment the task runs in.
func (t *Task) Env() *Env { return t.env }

// Running returns the task whose step is running, nil outside a task's step:
// in a plain callback, between events, or in a process's body, which runs
// after its step has returned.
func (e *Env) Running() *Task { return e.running }

// SetTrack assigns the task a trace track; spans recorded on its behalf land
// on that timeline. Tasks default to track -1 (untracked: their spans are
// dropped).
func (t *Task) SetTrack(track int) { t.track = int32(track) }

// Track returns the task's trace track (-1 when untracked).
func (t *Task) Track() int { return int(t.track) }

// Num returns the index passed to SpawnTask or SpawnIndexed (-1 when the
// prefix alone names the task). Spawn loops use it to share one start
// function across every task instead of capturing the index in a per-task
// closure.
func (t *Task) Num() int { return int(t.num) }

// Prefix returns the prefix passed to SpawnTask or SpawnIndexed: the whole
// name when Num is negative.
func (t *Task) Prefix() string { return t.prefix }

// HasName reports whether the task's name is name, without formatting an
// indexed name that is not formatted yet.
func (t *Task) HasName(name string) bool {
	if t.num < 0 || t.side != nil && t.side.name != "" {
		return t.Name() == name
	}
	p := t.prefix
	if len(name) <= len(p) || name[:len(p)] != p {
		return false
	}
	var b [12]byte
	return string(strconv.AppendInt(b[:0], int64(t.num), 10)) == name[len(p):]
}

// WaitsOn reports whether the task is parked on c.
func (t *Task) WaitsOn(c *Cond) bool { return t.parked && t.waitOn == c }

// Name returns the task's name. An indexed name is formatted when asked for,
// so the hot spawn paths never allocate a name that no report will read, and
// cached in the side record of a task that has one (a process's, a faulted
// task's): a report on a million parked plain tasks carves no side record.
func (t *Task) Name() string {
	if t.num < 0 {
		return t.prefix
	}
	s := t.side
	if s == nil {
		return t.prefix + strconv.Itoa(int(t.num))
	}
	if s.name == "" {
		s.name = t.prefix + strconv.Itoa(int(t.num))
	}
	return s.name
}

// SleepThen is SleepK with a closure for k.
func (t *Task) SleepThen(d Time, k func()) { t.SleepK(d, Func(k)) }

// SleepK suspends the task for d virtual time (negative counts as zero) and
// resumes with k. An active slowdown (Env.SetSlowdown) stretches d. Must be the
// final action of the current step.
func (t *Task) SleepK(d Time, k K) {
	if d < 0 {
		d = 0
	}
	if s := t.side; s != nil && s.slow > 1 {
		d *= s.slow
	}
	t.k = k
	t.env.push(t.env.now+d, (*taskResume)(t))
}

// parkOnT suspends the task indefinitely on a waitable; something else must
// hold a reference and wake it via an Event or Cond. k runs on wake (nil for
// an armed predicate wait, which resumes through its frame).
func (t *Task) parkOnT(on waitable, obj WaitDescriber, want int, k K) {
	if int(int32(want)) != want {
		panic("sim: a wait for " + strconv.Itoa(want) + ", past the report's int32")
	}
	t.parked = true
	t.k = k
	t.waitOn = on
	t.waitObj = obj
	t.waitWant = int32(want)
	t.waitSince = t.env.now
}

// unblockTask wakes a parked task at the current time.
func (e *Env) unblockTask(t *Task) {
	if !t.parked {
		if t.done || t.killed() {
			return // stale waiter entry: the task died while on a waiters list
		}
		panic("sim: unblock of task that is not parked: " + t.Name())
	}
	t.parked = false
	e.push(e.now, (*taskResume)(t))
}

// unpark takes a parked task off the waiter list of what it parked on and
// wakes it at the current time; no-op for a task that is not parked.
func (e *Env) unpark(t *Task) {
	if !t.parked {
		return
	}
	if t.waitOn != nil {
		t.waitOn.dropWaiter(t)
	}
	e.unblockTask(t)
}

// runTask resumes a task from the event loop: it delivers any pending kill
// or interrupt, otherwise runs the task's next step.
func (e *Env) runTask(t *Task) {
	if t.done {
		return // stale resume of a task torn down by a failure
	}
	if t.killed() {
		e.failTask(t, nil) // nil: the side record's crash (ProcFailure.Why)
		return
	}
	var intr any
	if s := t.side; s != nil && s.pending != nil {
		if t.started { // one that has not started takes it at its first resume after the start
			intr = s.pending
			s.pending = nil
			if s.onInterrupt == nil {
				e.failTask(t, intr)
				return
			}
			t.k = nil // the interrupted wait's continuation must not run
			t.clearWait()
		}
	}
	e.stepTask(t, intr)
}

// stepTask runs one step: the interrupt handler when intr is set, else the
// spawn function, the re-check of an armed predicate wait, or the stored
// continuation. A plain task's step that neither suspended nor rescheduled
// has fallen off its end, finishing the task; a process finishes when its
// body returns (proc_coro.go), however its task looks while the body is
// parked. A step that panics is recovered by the event loop (Env.drain) and
// the panic delivered as a failure.
func (e *Env) stepTask(t *Task, intr any) {
	prev := e.running
	e.running = t
	switch {
	case intr != nil:
		t.side.onInterrupt.Interrupted(intr)
	case t.wait != nil:
		t.retryWait()
	default:
		k := t.k
		t.k = nil
		if !t.started {
			t.started = true
			if fn, ok := k.(startFunc); ok {
				fn(t)
				break
			}
		}
		k.Resume()
	}
	if !t.done && t.k == nil && !t.parked && t.Proc() == nil {
		e.retire(t)
	}
	e.running = prev
}

// failTask delivers a failure — a kill, an interrupt nothing handles, the
// panic of a step — to a task: it tears down whatever the task was suspended
// in (dropping it from its waiter list so the resource is not left with a
// dead entry) and runs the unwind stack, restoring the protocol state the
// task was holding. A plain task is then dead. A process whose body has
// started is instead resumed with the cause as a panic at the call the body
// is parked in, so the body's defers and recovers behave as if the blocking
// call itself had panicked; only a panic that reaches the bottom of the body
// is the process's death (coro.run). A nil cause is the injected crash pending
// in the side record.
func (e *Env) failTask(t *Task, cause any) {
	if t.done {
		return
	}
	if t.parked {
		if t.waitOn != nil {
			t.waitOn.dropWaiter(t)
		}
		t.parked = false
	}
	t.RunUnwinds()
	t.clearWait()
	t.k = nil
	if p := t.Proc(); p != nil && p.co != nil {
		if cause == nil {
			cause = t.side.crash
		}
		p.co.raise(cause)
		return
	}
	e.retire(t)
	e.recordFailure(t, cause)
}

// retire marks a task finished. It keeps its identity for reports, but not
// what it waited on or would have run next: those point at flags and counters,
// hence at the machine and its buffers, and the registry or a caller's handle
// may outlive the run.
func (e *Env) retire(t *Task) {
	t.done = true
	e.live--
	t.k, t.waitOn, t.waitObj, t.wait = nil, nil, nil, nil
	if s := t.side; s != nil {
		s.onInterrupt = nil
		clear(s.unwinds)
		s.unwinds = s.unwinds[:0]
	}
}

// recordFailure records the death of t and tells the failure hook; a nil
// cause is the injected crash pending in its side record.
func (e *Env) recordFailure(t *Task, cause any) {
	t.recycle = false // the failure names it for good
	if cause == nil {
		cause = t.side.crash
	}
	f := ProcFailure{Actor: t, Time: e.now, Cause: cause}
	e.failures = append(e.failures, f)
	if e.OnFailure != nil {
		e.OnFailure(t, f)
	}
}

// WaitK suspends the task until the event has been triggered, then resumes
// with k. Must be the final action of the current step.
func (ev *Event) WaitK(t *Task, k K) {
	if ev.done {
		// Triggered already: continue within the same step, at zero cost.
		k.Resume()
		return
	}
	ev.waiters.add(t)
	t.parkOnT(ev, nil, -1, k)
}

// WaitT suspends the task until the next Broadcast, then resumes with k.
func (c *Cond) WaitT(t *Task, k func()) { c.WaitOnT(t, nil, -1, Func(k)) }

// WaitOnT is WaitT with a description of what the task waits for: a
// WaitDescriber plus the awaited value, formatted only if the wait lands in a
// stall or deadlock report.
func (c *Cond) WaitOnT(t *Task, obj WaitDescriber, want int, k K) {
	c.waiters.add(t)
	t.parkOnT(c, obj, want, k)
}

// WaitFrame is a parked predicate wait as one value: Ready reports whether
// the awaited condition holds, Resume continues the task once it does. A
// primitive that waits for a value (a flag, a counter) implements both on
// the frame that already holds its arguments, so arming the wait stores one
// interface in the Task and binds no predicate or continuation closure.
type WaitFrame interface {
	Ready() bool
	K
}

// WaitFrameT parks the task on c until w.Ready() holds, re-checking after
// every Broadcast, then calls w.Resume() as a step of the task. The caller
// has found the condition unmet (a met one continues inline, without a
// frame); obj and want describe the wait to stall reports like Cond.WaitOnT.
// Must be the final action of the current step.
func (c *Cond) WaitFrameT(t *Task, obj WaitDescriber, want int, w WaitFrame) {
	t.wait = w
	c.WaitOnT(t, obj, want, nil)
}

// retryWait is the resume step of an armed predicate wait: it releases the
// frame if its condition now holds, else parks again on the same Cond with
// the same report context.
func (t *Task) retryWait() {
	if w := t.wait; w.Ready() {
		t.clearWait()
		w.Resume()
		return
	}
	c := t.waitOn.(*Cond) // only a Cond arms a frame, and a wake-up left it here
	c.WaitOnT(t, t.waitObj, int(t.waitWant), nil)
}

// clearWait disarms the predicate wait so its frame can be reused or
// collected; called when the wait completes or the task is torn down.
func (t *Task) clearWait() { t.wait = nil }

// SetUnwindArmed enables (or disables and clears) the task's unwind stack.
// Fault-tolerant execution arms it on a plain task for the duration of a
// collective; a Proc's is armed from spawn and stays so.
func (t *Task) SetUnwindArmed(on bool) {
	if !on && t.side == nil {
		return
	}
	s := t.cold()
	s.unwindArmed = on
	if !on {
		s.unwinds = s.unwinds[:0]
	}
}

// UnwindArmed reports whether PushUnwind currently records compensations.
func (t *Task) UnwindArmed() bool { return t.side != nil && t.side.unwindArmed }

// PushUnwind records k to resume if the task is interrupted or killed before
// the matching PopUnwind. No-op while the stack is disarmed.
func (t *Task) PushUnwind(k K) {
	if s := t.side; s != nil && s.unwindArmed {
		s.unwinds = append(s.unwinds, k)
	}
}

// PopUnwind discards the most recent compensation without running it — the
// protected region completed normally. No-op while disarmed or empty.
func (t *Task) PopUnwind() {
	if s := t.side; s != nil && s.unwindArmed {
		if n := len(s.unwinds); n > 0 {
			s.unwinds[n-1] = nil
			s.unwinds = s.unwinds[:n-1]
		}
	}
}

// RunUnwinds runs the recorded compensations LIFO and clears the stack, as a
// panic runs the defers of the frames it unwinds.
func (t *Task) RunUnwinds() {
	s := t.side
	if s == nil {
		return
	}
	for i := len(s.unwinds) - 1; i >= 0; i-- {
		k := s.unwinds[i]
		s.unwinds[i] = nil
		s.unwinds = s.unwinds[:i]
		k.Resume()
	}
}
