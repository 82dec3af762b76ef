//go:build go1.23

package sim

import "iter"

// The Proc hand-off. A process body runs on a runtime coroutine (iter.Pull):
// resuming the body is next(), parking it is yield(), and either one switches
// directly between the two goroutines without passing through the Go
// scheduler. Alternation is strict by construction — next() returns only when
// the body has parked or finished — so the (t, seq) order of the event loop
// is the only order there is.
//
// The body is the only thing that runs on the coroutine. A blocking call
// starts the continuation form on the process's Task and parks; the steps that
// follow — a put's injection after its overhead sleep, every operation of a
// collective — run on the event loop's goroutine like those of a plain task,
// and the last of them calls the continuation the body passed (Resume), after
// which the loop switches back. So a blocking primitive costs one switch each
// way however many steps it takes, and a step never runs on a stack that a
// failure would
// have to unwind: a kill, an unhandled interrupt or the panic of a step first
// runs the Task's unwind stack on the event loop (failTask), then is raised in
// the body as a panic out of Park, where the body's defers and recovers, the
// recover at the bottom of run and a Goexit see it exactly as if the blocking
// call had panicked. A panic on the coroutine itself (the body's own code, or
// the first step of a continuation form, which runs inline) reaches run the
// same way, and run runs what is left of the unwind stack.
//
// This file needs Go 1.23 and has no fallback twin: a second hand-off would
// have to be kept equal to this one. The go.mod line stays at 1.22 because
// bench/go.mod, which replaces this module, is frozen there; the build tag
// above is what lets go vet accept iter from a 1.22 module.
//
// Coroutines are pooled per Env. A cold coroutine costs 9 heap objects, 7 in
// iter.Pull and 2 in startCoro, so a coroutine whose body returned goes on
// Env.idle and runs the next process that starts; the ones still idle when the
// driving RunUntil returns are stopped there, so a finished simulation holds
// no goroutine. (Request helpers are plain tasks: within a Run no process
// starts after another's body has returned, and the pool serves the processes
// that tests and the benchmark's layer drivers spawn one after another.) A
// process left parked by a deadlock keeps its coroutine (and goroutine) for
// good, there being no stack to resume it on otherwise.
//
// runtime.Goexit in a body (t.Fatal, t.FailNow or t.SkipNow called from a rank
// function) runs the body's deferred calls and finishes the process without a
// recorded failure; iter.Pull then re-raises the Goexit on the goroutine inside
// next() — the caller of RunUntil, normally the test's own goroutine, which is
// where FailNow wants it. The coroutine is gone (never pooled) and the Env must
// not be run again.

// coro is one pooled coroutine: a goroutine running process bodies one after
// another, suspended in yield between and inside them.
type coro struct {
	env   *Env
	next  func() (struct{}, bool) // switch to the coroutine until it yields
	stop  func()                  // make a suspended yield return false
	yield func(struct{}) bool     // switch back to the caller of next
	p     *Proc                   // the process whose body runs here

	// The body's side of a blocking call — the continuation it passes is the
	// coroutine itself (Resume): whether it is parked waiting for it, whether
	// it ran before the body got to park, and a failure to raise when the body
	// resumes.
	waiting bool
	fired   bool
	failure any
}

// startCoro binds p to an idle coroutine, creating one when the pool is empty.
func (e *Env) startCoro(p *Proc) *coro {
	var co *coro
	if n := len(e.idle); n > 0 {
		co = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		co = &coro{env: e}
		co.next, co.stop = iter.Pull(co.loop)
	}
	co.p, p.co = p, co
	return co
}

// loop is the coroutine's goroutine: run a body, go idle, repeat until stopped.
func (co *coro) loop(yield func(struct{}) bool) {
	co.yield = yield
	for {
		co.run()
		co.env.idle = append(co.env.idle, co)
		if !yield(struct{}{}) {
			return // stopIdle
		}
	}
}

// run executes one process body; its return is the process's end. A panic is
// recovered here, inside the body's frame, so the coroutine survives it and
// stays reusable. Compensations still on the unwind stack — a panic on the
// coroutine left them, or a Goexit — run after the body's own defers.
func (co *coro) run() {
	p, e := co.p, co.env
	defer func() {
		r := recover()
		p.co, co.p = nil, nil
		p.RunUnwinds()
		e.retire(&p.Task)
		if r != nil {
			e.recordFailure(&p.Task, r)
		}
	}()
	b := p.body
	p.body = nil
	b(p)
}

// startBody is the first step of a process's task: the body starts on a
// coroutine and runs to its first Park, or to its end.
func startBody(t *Task) { t.env.startCoro(t.Proc()).enter() }

// Resume returns the continuation that resumes the body: what a blocking call
// passes to the continuation form it starts, before it Parks. The continuation
// form may call it at once (nothing to wait for) or as, or from, a later step
// of the task.
func (p *Proc) Resume() K {
	p.co.fired = false
	return p.co
}

// Park suspends the body until the continuation Resume returned has run — not
// at all if it already has. A failure delivered meanwhile (failTask) is raised
// here.
func (p *Proc) Park() {
	co := p.co
	if co.fired {
		co.fired = false
		return
	}
	co.waiting = true
	co.yield(struct{}{})
	co.waiting = false
	if r := co.failure; r != nil {
		co.failure = nil
		panic(r)
	}
}

// Resume is the continuation of every blocking call of the body. Called while
// the body is still on its way to Park (the continuation form completed
// inline, on the coroutine itself) it only leaves a note; called from a step
// on the event loop it has the loop switch to the body.
func (co *coro) Resume() {
	if !co.waiting {
		co.fired = true
		return
	}
	co.enter()
}

// enter switches to the coroutine — not from here, but from the event loop
// once the running step has returned to it (Env.drain). Calling a continuation
// is the last thing a step does, so the body runs when it would have anyway.
// What differs is how deep in calls the switch happens: a coroutine switch
// leaves the CPU's return-address predictor describing the other stack, so
// every return between the switch and the loop is mispredicted, and from
// inside a step there are five of them (DESIGN.md §9 has the numbers).
func (co *coro) enter() {
	e := co.env
	if prev := e.resuming; prev != nil {
		prev.next() // a second body resumed by the same step: in order
	}
	e.resuming = co
}

// raise resumes the parked body with a panic out of Park, at once: a resume
// the failing step had already asked for is overtaken.
func (co *coro) raise(cause any) {
	if co.env.resuming == co {
		co.env.resuming = nil
	}
	co.failure = cause
	co.next()
}

// stopIdle ends the pooled coroutines. Each is suspended between bodies, so
// its yield returns false and its goroutine exits before stop returns.
func (e *Env) stopIdle() {
	for i, co := range e.idle {
		co.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}
