package srmcoll

// Fault tolerance is written once (ft.go, frame.run): check, registration,
// operation, deregistration, and the delivery — a declaration interrupts the
// task running the operation (Env.Interrupt). What has two forms is who catches
// it. An actor with a stack is blocked in the operation: the simulator runs the
// task's unwind stack and raises the interrupt as a panic out of Park, where
// block recovers it. An actor without one has nothing to raise it in: arm
// installs the task's OnInterrupt handler and arms its unwind stack for the
// duration of the operation, and interrupted runs it. Both end in
// frame.declared, so the continuation gets the same *RankFailedError at the
// same virtual time. TComm's two rendezvous methods follow.

import "srmcoll/internal/trace"

// block dispatches the operation from the actor's stack and returns what it
// ended with.
func (f *frame) block() (err error) {
	if f.registered {
		defer func() {
			if r := recover(); r != nil {
				err = f.declared(r)
			}
		}()
	}
	f.invoke(f.h.rec.coll, f.p, f.h.rank)
	return nil
}

// arm has a task without a stack catch by handler, its unwind stack armed,
// until end puts it back as it is between operations.
func (f *frame) arm() {
	if f.intrFn == nil {
		f.intrFn = f.interrupted
	}
	f.t.OnInterrupt = f.intrFn
	f.t.SetUnwindArmed(true)
}

// interrupted is the task's OnInterrupt handler while the operation is
// registered. The compensations run first, as before a panic out of Park.
func (f *frame) interrupted(payload any) {
	f.t.RunUnwinds()
	f.end(f.declared(payload))
}

// Agree is fault-tolerant agreement on a 64-bit flag word; see Comm.Agree.
func (tc *TComm) Agree(flags uint64, k func(uint64, error)) {
	tc.ftSync(trace.ClassAgree, flags, func() { k(tc.agreed()) })
}

// Shrink repairs the communicator after a failure; see Comm.Shrink. The
// continuation receives the repaired communicator over the survivors.
func (tc *TComm) Shrink(k func(*TComm, error)) {
	tc.ftSync(trace.ClassShrink, 0, func() {
		s, err := tc.shrunk()
		k((*TComm)(s), err)
	})
}
