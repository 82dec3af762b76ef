package sim

import "strconv"

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
// ways: suspend by calling a blocking primitive (SleepThen, YieldThen,
// Cond.WaitT, Event.WaitT, ...) as its final action, or fall off the end,
// which finishes the task. Blocking primitives take the continuation to run
// on resume; calling one anywhere but the tail of a step is a bug (the rest
// of the step would run before the wait completes in virtual time).
//
// A resumed Task is an ordinary queue item, ordered by (time, sequence
// number) like every other occurrence.
type Task struct {
	env    *Env
	prefix string      // full name, or name prefix when num >= 0
	name   string      // cached formatted name (built on first Name call)
	num    int32       // index appended to prefix; -1 when prefix is the name
	track  int32       // trace track id, or -1 when untracked
	k      func()      // continuation to run at the next resume
	start  func(*Task) // first step, held directly so spawning allocates no closure
	proc   *Proc       // the process this task is the actor of: its body is parked on a coroutine between steps; nil for a plain task
	slow   float64     // sleep stretch factor (stall windows); 0 or 1 = none
	killed string      // non-empty: injected crash reason, raised at next resume
	intr   any         // pending interrupt payload, delivered at next resume

	parked      bool // suspended on a waitable with no scheduled wake-up
	done        bool
	unwindArmed bool // PushUnwind records (see the unwind stack below)

	// OnInterrupt, when non-nil, handles an Env.Interrupt delivery: the
	// pending continuation is discarded and the handler runs as a step (it
	// may re-arm waits or reschedule to survive, the CPS analogue of a
	// recover along a Proc's stack). A task without a handler dies with the
	// payload recorded as its failure cause.
	OnInterrupt func(payload any)

	// Wait context, read by stall reports while the task is parked. A
	// wake-up leaves it in place rather than clearing it: an armed predicate
	// wait parks again with the same context.
	waitOn    waitable
	waitObj   WaitDescriber
	waitWant  int
	waitSince Time
	waitNext  *Task // next waiter of the resource parked on (taskList)

	// Armed predicate wait (Cond.WaitFrameT): every wake-up asks the frame
	// whether its condition holds and parks again on the same Cond (waitOn)
	// if not, so the hottest protocol loops (flag spins, counter waits)
	// re-check and re-park without a continuation of their own.
	wait WaitFrame

	// Unwind stack: primitives that hold protocol state across a suspension
	// (dispatcher inCall, spinner counts, open trace spans) push the
	// compensation that restores it, and an interrupt or failure delivery
	// runs the stack LIFO — what a defer would do if the primitive had a
	// stack to unwind. It is armed for a Proc's whole life and, on a plain
	// task, inside fault-sensitive operations; disarmed (the default),
	// Push/Pop are no-ops so the fault-free hot paths pay a single bool check.
	unwinds []func()
}

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
	t.env, t.prefix, t.num, t.track, t.start = e, prefix, int32(num), -1, fn
	e.admit(t)
	return t
}

// admit counts a new task live, registers it and schedules its first step.
func (e *Env) admit(t *Task) {
	e.live++
	e.register(t)
	e.push(e.now, nil, t)
}

// register appends t to the registry of spawned tasks, which is what stall and
// deadlock reports walk: parking and waking touch only the task's own parked
// flag. When the registry fills, finished tasks are swept out before it grows,
// so a run that spawns short-lived helpers forever holds only the live ones.
func (e *Env) register(t *Task) {
	reg := e.tasks
	if n := len(reg); n == cap(reg) && n > 0 {
		live := reg[:0]
		for _, a := range reg {
			if !a.done {
				live = append(live, a)
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

// Env returns the environment the task runs in.
func (t *Task) Env() *Env { return t.env }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.env.now }

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

// Name returns the task's name. An indexed name is formatted on first use
// and cached: the hot spawn paths never allocate a name that no report will
// read.
func (t *Task) Name() string {
	if t.name == "" {
		if t.num < 0 {
			t.name = t.prefix
		} else {
			t.name = t.prefix + strconv.Itoa(int(t.num))
		}
	}
	return t.name
}

// Done reports whether the task has finished (or died).
func (t *Task) Done() bool { return t.done }

// SleepThen suspends the task for d virtual time (negative counts as zero)
// and resumes with k. An active slowdown (Env.SetSlowdown) stretches d. Must
// be the final action of the current step.
func (t *Task) SleepThen(d Time, k func()) {
	if d < 0 {
		d = 0
	}
	if t.slow > 1 {
		d *= t.slow
	}
	t.k = k
	t.env.push(t.env.now+d, nil, t)
}

// YieldThen reschedules the task at the current time, letting other
// already-scheduled work at this timestamp run first, then resumes with k.
func (t *Task) YieldThen(k func()) { t.SleepThen(0, k) }

// parkOnT suspends the task indefinitely on a waitable; something else must
// hold a reference and wake it via an Event or Cond. k runs on wake (nil for
// an armed predicate wait, which resumes through its frame).
func (t *Task) parkOnT(on waitable, obj WaitDescriber, want int, k func()) {
	t.parked = true
	t.k = k
	t.waitOn = on
	t.waitObj = obj
	t.waitWant = want
	t.waitSince = t.env.now
}

// unblockTask wakes a parked task at the current time.
func (e *Env) unblockTask(t *Task) {
	if !t.parked {
		if t.done || t.killed != "" {
			return // stale waiter entry: the task died while on a waiters list
		}
		panic("sim: unblock of task that is not parked: " + t.Name())
	}
	t.parked = false
	e.push(e.now, nil, t)
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
	if t.killed != "" {
		e.failTask(t, Crashed{Reason: t.killed})
		return
	}
	var intr any
	if t.start == nil { // one that has not started takes it at its first resume after the start
		intr = t.intr
	}
	if intr != nil {
		t.intr = nil
		if t.OnInterrupt == nil {
			e.failTask(t, intr)
			return
		}
		t.k = nil // the interrupted wait's continuation must not run
		t.clearWait()
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
	switch {
	case intr != nil:
		t.OnInterrupt(intr)
	case t.start != nil:
		fn := t.start
		t.start = nil
		fn(t)
	case t.wait != nil:
		t.retryWait()
	default:
		k := t.k
		t.k = nil
		k()
	}
	if !t.done && t.k == nil && !t.parked && t.proc == nil {
		e.retire(t)
	}
}

// failTask delivers a failure — a kill, an interrupt nothing handles, the
// panic of a step — to a task: it tears down whatever the task was suspended
// in (dropping it from its waiter list so the resource is not left with a
// dead entry) and runs the unwind stack, restoring the protocol state the
// task was holding. A plain task is then dead. A process whose body has
// started is instead resumed with the cause as a panic at the call the body
// is parked in, so the body's defers and recovers behave as if the blocking
// call itself had panicked; only a panic that reaches the bottom of the body
// is the process's death (coro.run).
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
	if p := t.proc; p != nil && p.co != nil {
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
	t.k, t.start, t.OnInterrupt, t.unwinds = nil, nil, nil, nil
	t.waitOn, t.waitObj, t.wait = nil, nil, nil
}

// recordFailure records the death of t and tells the failure hook.
func (e *Env) recordFailure(t *Task, cause any) {
	f := ProcFailure{Proc: t.Name(), Actor: t, Time: e.now, Cause: cause}
	e.failures = append(e.failures, f)
	if e.OnFailure != nil {
		e.OnFailure(t, f)
	}
}

// WaitT suspends the task until the event has been triggered, then resumes
// with k. Must be the final action of the current step.
func (ev *Event) WaitT(t *Task, k func()) {
	if ev.done {
		// Triggered already: continue within the same step, at zero cost.
		k()
		return
	}
	ev.waiters.add(t)
	t.parkOnT(ev, nil, -1, k)
}

// WaitT suspends the task until the next Broadcast, then resumes with k.
func (c *Cond) WaitT(t *Task, k func()) { c.WaitOnT(t, nil, -1, k) }

// WaitOnT is WaitT with a description of what the task waits for: a
// WaitDescriber plus the awaited value, formatted only if the wait lands in a
// stall or deadlock report.
func (c *Cond) WaitOnT(t *Task, obj WaitDescriber, want int, k func()) {
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
	Resume()
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
	c.WaitOnT(t, t.waitObj, t.waitWant, nil)
}

// clearWait disarms the predicate wait so its frame can be reused or
// collected; called when the wait completes or the task is torn down.
func (t *Task) clearWait() { t.wait = nil }

// SetUnwindArmed enables (or disables and clears) the task's unwind stack.
// Fault-tolerant execution arms it on a plain task for the duration of a
// collective; a Proc's is armed from spawn and stays so.
func (t *Task) SetUnwindArmed(on bool) {
	t.unwindArmed = on
	if !on {
		t.unwinds = t.unwinds[:0]
	}
}

// UnwindArmed reports whether PushUnwind currently records compensations.
func (t *Task) UnwindArmed() bool { return t.unwindArmed }

// PushUnwind records fn to run if the task is interrupted or killed before
// the matching PopUnwind. No-op while the stack is disarmed.
func (t *Task) PushUnwind(fn func()) {
	if t.unwindArmed {
		t.unwinds = append(t.unwinds, fn)
	}
}

// PopUnwind discards the most recent compensation without running it — the
// protected region completed normally. No-op while disarmed or empty.
func (t *Task) PopUnwind() {
	if n := len(t.unwinds); t.unwindArmed && n > 0 {
		t.unwinds[n-1] = nil
		t.unwinds = t.unwinds[:n-1]
	}
}

// RunUnwinds runs the recorded compensations LIFO and clears the stack, as a
// panic runs the defers of the frames it unwinds.
func (t *Task) RunUnwinds() {
	for i := len(t.unwinds) - 1; i >= 0; i-- {
		fn := t.unwinds[i]
		t.unwinds[i] = nil
		t.unwinds = t.unwinds[:i]
		fn()
	}
}
