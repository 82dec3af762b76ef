package srmcoll

// Fault tolerance for continuation-passing bodies. The protocol is the one
// ft.go documents, and so is the delivery: declaration interrupts the task
// running the operation (Env.Interrupt). What differs is who catches it. A
// Run body has a stack: the simulator runs the task's unwind stack and raises
// the interrupt as a panic at the call the body is blocked in, where ftRun's
// recover turns it into the error. A RunT body on the Tasks engine has none:
// the task's OnInterrupt handler (tcall.interrupted in tcomm.go) runs the
// unwind stack, armed for the duration of the operation, and the error
// continuation fires with the same *RankFailedError at the same virtual time.

// quiesceT is quiesce for the Task engine: order a rendezvous after every
// outstanding request of this rank.
func (tc *TComm) quiesceT(k func()) {
	c := tc.c
	if st := &c.rs.streams[c.rank]; st.tail != nil && !st.tail.Done() {
		st.tail.WaitT(tc.t, k)
		return
	}
	k()
}

// ftSyncT is ftSync in continuation-passing form: the same entry into the
// communicator's rendezvous (it runs synchronously inside the step), with only
// the survivor park and the protocol-cost sleep suspending the task.
func (tc *TComm) ftSyncT(kind string, flag uint64, k func(*ftGather, error)) {
	c := tc.c
	if err := c.ftCheck(kind); err != nil {
		k(nil, err)
		return
	}
	tc.quiesceT(func() {
		g := c.rec.enter(c.rs.ft, c.rank, kind, flag)
		id := c.tr.Begin(tc.t.Track(), ftClass(kind), kind, 0)
		fin := func() {
			tc.t.SleepThen(c.ftSyncCost(), func() {
				c.tr.End(id)
				k(g, nil)
			})
		}
		if !g.done {
			g.ev.WaitT(tc.t, fin)
			return
		}
		fin()
	})
}

// Agree is fault-tolerant agreement on a 64-bit flag word; see Comm.Agree.
func (tc *TComm) Agree(flags uint64, k func(uint64, error)) {
	if tc.t == nil {
		v, err := tc.c.Agree(flags)
		k(v, err)
		return
	}
	tc.ftSyncT("agree", flags, func(g *ftGather, err error) {
		if err != nil {
			k(0, err)
			return
		}
		k(g.result, nil)
	})
}

// Shrink repairs the communicator after a failure; see Comm.Shrink. The
// continuation receives the repaired communicator over the survivors.
func (tc *TComm) Shrink(k func(*TComm, error)) {
	if tc.t == nil {
		s, err := tc.c.Shrink()
		if err != nil {
			k(nil, err)
			return
		}
		k(tc.wrap(s), nil)
		return
	}
	tc.ftSyncT("shrink", 0, func(g *ftGather, err error) {
		if err != nil {
			k(nil, err)
			return
		}
		k(tc.Sub(g.survivors), nil)
	})
}
