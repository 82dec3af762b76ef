package sim

import "strconv"

// Task is the scheduler's second process engine: a resumable state machine
// driven directly by the event loop. A Proc costs a goroutine stack plus a
// coroutine switch there and back per wake-up; a Task costs one small struct,
// and suspending it is a pointer store. Protocol hot loops (RMA put/ack,
// SMP flag synchronization, request streams) run as Tasks so simulations
// scale to tens of thousands of ranks; user compute callbacks and the
// chaos/fault-tolerance paths keep the Proc API.
//
// A Task is written in continuation-passing style. Each step runs to
// completion inside the event loop and must end in exactly one of three
// ways: suspend by calling a blocking primitive (SleepThen, YieldThen,
// Cond.WaitT, Event.WaitT, ...) as its final action, or fall off the end,
// which finishes the task. Blocking primitives take the continuation to run
// on resume; calling one anywhere but the tail of a step is a bug (the rest
// of the step would run before the wait completes in virtual time).
//
// Determinism is shared with Procs: a resumed Task is an ordinary queue
// item, ordered by (time, sequence number) like every other occurrence.
type Task struct {
	env    *Env
	prefix string      // full name, or name prefix when num >= 0
	num    int         // index appended to prefix; -1 when prefix is the name
	name   string      // cached formatted name (built on first Name call)
	track  int         // trace track id, or -1 when untracked
	k      func()      // continuation to run at the next resume
	start  func(*Task) // first step, held directly so spawning allocates no closure
	parked bool        // suspended on a waitable with no scheduled wake-up
	done   bool
	killed string // non-empty: injected crash reason, raised at next resume
	intr   any    // pending interrupt payload, delivered at next resume

	// OnInterrupt, when non-nil, handles an Env.InterruptTask delivery: the
	// pending continuation is discarded and the handler runs as a step (it
	// may re-arm waits or reschedule to survive, the CPS analogue of a
	// recover along a Proc's stack). A task without a handler dies with the
	// payload recorded as its failure cause.
	OnInterrupt func(payload any)

	// Wait context, mirroring Proc's; read by stall reports while the task
	// is parked. A wake-up leaves it in place rather than clearing it: an
	// armed predicate wait parks again with the same context.
	waitOn    taskParkable
	waitObj   WaitDescriber
	waitWant  int
	waitSince Time
	waitNext  *Task // next waiter of the resource parked on (taskList)

	// Armed predicate wait (Cond.WaitFrameT): every wake-up asks the frame
	// whether its condition holds and parks again on the same Cond (waitOn)
	// if not, so the hottest protocol loops (flag spins, counter waits)
	// re-check and re-park without a continuation of their own.
	wait WaitFrame

	// Unwind stack, armed only inside fault-sensitive operations: blocking
	// primitives that would restore state via defer on the Proc engine
	// (dispatcher inCall, spinner counts, open trace spans) push a
	// compensation here instead, and an interrupt or failure delivery runs
	// the stack LIFO. Disarmed (the default), Push/Pop are no-ops so the
	// fault-free hot paths pay a single bool check.
	unwinds     []func()
	unwindArmed bool
}

// taskParkable is a synchronization resource a Task can park on — the Task
// counterpart of waitable. dropTaskWaiter removes a task from the waiter
// list without waking it; Env.InterruptTask and failure teardown use it so
// an interrupted state machine does not linger as a stale waiter, exactly
// like a parked Proc.
type taskParkable interface {
	waitID() string
	dropTaskWaiter(t *Task)
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
// Env.Failures), and finishes the task, like a Proc panic.
func (e *Env) SpawnTask(prefix string, num int, fn func(*Task)) *Task {
	t := e.taskMem.New()
	t.env, t.prefix, t.num, t.track, t.start = e, prefix, num, -1, fn
	e.live++
	e.tasks = register(e.tasks, t)
	e.push(e.now, nil, t)
	return t
}

// register appends x to a registry of spawned actors (Env.procs, Env.tasks),
// which is what stall and deadlock reports walk: parking and waking touch only
// the actor's own parked flag. When the registry fills, finished actors are
// swept out before it grows, so a run that spawns short-lived helpers forever
// holds only the live ones.
func register[A interface{ Done() bool }](reg []A, x A) []A {
	if n := len(reg); n == cap(reg) && n > 0 {
		live := reg[:0]
		for _, a := range reg {
			if !a.Done() {
				live = append(live, a)
			}
		}
		clear(reg[len(live):])
		if len(live) > n/2 {
			// Mostly live: double, so the next sweep is as far away again.
			live = append(make([]A, 0, 2*n), live...)
		}
		reg = live
	}
	return append(reg, x)
}

// Env returns the environment the task runs in.
func (t *Task) Env() *Env { return t.env }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.env.now }

// SetTrack assigns the task a trace track (see Proc.SetTrack).
func (t *Task) SetTrack(track int) { t.track = track }

// Track returns the task's trace track (-1 when untracked).
func (t *Task) Track() int { return t.track }

// Num returns the index passed to SpawnTask (-1 when the prefix alone names
// the task). Spawn loops use it to share one start function across every
// task instead of capturing the index in a per-task closure.
func (t *Task) Num() int { return t.num }

// Name returns the task's name, formatted on first use like Proc.Name.
func (t *Task) Name() string {
	if t.name == "" {
		if t.num < 0 {
			t.name = t.prefix
		} else {
			t.name = t.prefix + strconv.Itoa(t.num)
		}
	}
	return t.name
}

// Done reports whether the task has finished (or died).
func (t *Task) Done() bool { return t.done }

// SleepThen suspends the task for d virtual time (negative counts as zero)
// and resumes with k. Must be the final action of the current step.
func (t *Task) SleepThen(d Time, k func()) {
	if d < 0 {
		d = 0
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
func (t *Task) parkOnT(on taskParkable, obj WaitDescriber, want int, k func()) {
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

// KillTask schedules an injected crash of t, mirroring Env.Kill: the task
// dies with a Crashed failure the next time it would run (immediately at
// the current virtual time if it is parked). No-op on finished or
// already-killed tasks. Called from event callbacks.
func (e *Env) KillTask(t *Task, reason string) {
	if t.done || t.killed != "" {
		return
	}
	if reason == "" {
		reason = "killed"
	}
	t.killed = reason
	if t.parked {
		if t.waitOn != nil {
			t.waitOn.dropTaskWaiter(t)
		}
		e.unblockTask(t) // deliver the crash now instead of never
	}
	// Otherwise the task is sleeping (or starting) and its queued resume
	// delivers the crash.
}

// InterruptTask delivers an asynchronous interrupt to t, mirroring
// Env.Interrupt: the pending continuation is abandoned and the task's
// OnInterrupt handler (or its death, absent one) happens the next time the
// task would run — immediately at the current virtual time if it is parked,
// in which case it is first removed from the waiter list of the resource it
// parked on so no stale entry remains. No-op on finished, killed, or
// already-interrupted tasks, and for nil payloads.
func (e *Env) InterruptTask(t *Task, payload any) {
	if t.done || t.killed != "" || t.intr != nil || payload == nil {
		return
	}
	t.intr = payload
	if t.parked {
		if t.waitOn != nil {
			t.waitOn.dropTaskWaiter(t)
		}
		e.unblockTask(t)
	}
	// Otherwise the task is sleeping (or running to its next park) and its
	// next resume delivers the interrupt.
}

// runTask resumes a task from the event loop: it delivers any pending kill
// or interrupt, otherwise runs the task's next step.
func (e *Env) runTask(t *Task) {
	if t.done {
		return // stale resume of a task torn down by a failure
	}
	if t.killed != "" {
		t.k = nil
		t.start = nil
		e.failTask(t, Crashed{Reason: t.killed})
		return
	}
	intr := t.intr
	if intr != nil {
		t.intr = nil
		t.k = nil // the interrupted wait's continuation must not run
		t.start = nil
		t.clearWait()
		if t.OnInterrupt == nil {
			e.failTask(t, intr)
			return
		}
	}
	e.stepTask(t, intr)
}

// stepTask runs one step: the interrupt handler when intr is set, else the
// spawn function, the re-check of an armed predicate wait, or the stored
// continuation. A step that neither suspended nor rescheduled has fallen off
// its end, finishing the task; a panic is recovered and recorded like a Proc
// failure.
func (e *Env) stepTask(t *Task, intr any) {
	defer func() {
		if r := recover(); r != nil {
			e.failTask(t, r)
		}
		if !t.done && t.k == nil && !t.parked {
			t.done = true
			e.live--
		}
	}()
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
}

// failTask records a task death and tears down any park state, dropping the
// task from its waiter list so the resource is not left with a dead entry.
func (e *Env) failTask(t *Task, cause any) {
	if t.done {
		return
	}
	if t.parked {
		if t.waitOn != nil {
			t.waitOn.dropTaskWaiter(t)
		}
		t.parked = false
	}
	if t.unwindArmed {
		// Restore protocol state the dead task was holding (dispatcher
		// inCall, spinner counts), as the panic unwind of a Proc would.
		t.RunUnwinds()
		t.unwindArmed = false
	}
	t.clearWait()
	t.k = nil
	t.done = true
	e.live--
	f := ProcFailure{Proc: t.Name(), Actor: t, Time: e.now, Cause: cause}
	e.failures = append(e.failures, f)
	if e.OnTaskFailure != nil {
		e.OnTaskFailure(t, f)
	}
}

// WaitT suspends the task until the event has been triggered, then resumes
// with k. Must be the final action of the current step.
func (ev *Event) WaitT(t *Task, k func()) {
	if ev.done {
		// Triggered already: continue within the same step, zero cost, the
		// exact analogue of Proc.Wait returning without parking.
		k()
		return
	}
	ev.tasks.add(t)
	t.parkOnT(ev, nil, -1, k)
}

// WaitT suspends the task until the next Broadcast, then resumes with k.
func (c *Cond) WaitT(t *Task, k func()) {
	c.tasks.add(t)
	t.parkOnT(c, nil, -1, k)
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
// frame); obj and want describe the wait to stall reports like Cond.WaitOn.
// Must be the final action of the current step.
func (c *Cond) WaitFrameT(t *Task, obj WaitDescriber, want int, w WaitFrame) {
	t.wait = w
	c.tasks.add(t)
	t.parkOnT(c, obj, want, nil)
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
	c.tasks.add(t)
	t.parkOnT(c, t.waitObj, t.waitWant, nil)
}

// clearWait disarms the predicate wait so its frame can be reused or
// collected; called when the wait completes or the task is torn down.
func (t *Task) clearWait() { t.wait = nil }

// SetUnwindArmed enables (or disables and clears) the task's unwind stack.
// Fault-tolerant execution arms it for the duration of a collective so
// blocking primitives can register the compensations a Proc would run via
// defer; everything else leaves it disarmed and pays nothing.
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

// RunUnwinds runs the recorded compensations LIFO and clears the stack,
// the CPS analogue of a panic unwinding a Proc's deferred restores.
func (t *Task) RunUnwinds() {
	for i := len(t.unwinds) - 1; i >= 0; i-- {
		fn := t.unwinds[i]
		t.unwinds[i] = nil
		t.unwinds = t.unwinds[:i]
		fn()
	}
}
