//go:build go1.23

package sim

import "iter"

// The Proc hand-off. A process body runs on a runtime coroutine (iter.Pull):
// waking a process is next(), parking is yield(), and either one switches
// directly between the two goroutines without passing through the Go
// scheduler. Alternation is strict by construction — next() returns only when
// the process has parked or finished — so the (t, seq) order of the event loop
// is the only order there is.
//
// This file needs Go 1.23 and has no fallback twin: a second hand-off would
// have to be kept equal to this one. The go.mod line stays at 1.22 because
// bench/go.mod, which replaces this module, is frozen there; the build tag
// above is what lets go vet accept iter from a 1.22 module.
//
// Coroutines are pooled per Env. A cold iter.Pull costs about 13 heap objects,
// and request helper processes are spawned per operation, so a coroutine whose
// body returned goes on Env.idle and runs the next process that starts; the
// ones still idle when the driving RunUntil returns are stopped there, so a
// finished simulation holds no goroutine. A process left parked by a deadlock
// keeps its coroutine (and goroutine) for good, there being no stack to resume
// it on otherwise.
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

// run executes one process body. A panic is recovered here, inside the body's
// frame, so the coroutine survives it and stays reusable.
func (co *coro) run() {
	p, e := co.p, co.env
	defer func() {
		if r := recover(); r != nil {
			f := ProcFailure{Proc: p.Name(), Actor: p, Time: e.now, Cause: r}
			e.failures = append(e.failures, f)
			if e.OnFailure != nil {
				e.OnFailure(p, f)
			}
		}
		p.done = true
		p.co, co.p = nil, nil
		e.live--
	}()
	fn := p.fn
	p.fn = nil
	p.checkKilled()
	fn(p)
}

// wake transfers control to p and returns when p parks or finishes.
func (e *Env) wake(p *Proc) {
	// A wake-up can outlive its process (a crash delivered while another
	// wake-up was queued). The coroutine p ran on may by now be running
	// another body, so done is checked before anything touches it.
	if p.done {
		return
	}
	co := p.co
	if co == nil { // first wake-up: the body starts now
		co = e.startCoro(p)
	}
	co.next()
}

// park suspends the calling process until the scheduler wakes it.
func (p *Proc) park() {
	p.co.yield(struct{}{})
	p.checkKilled()
	p.checkInterrupt()
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
