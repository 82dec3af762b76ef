package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"srmcoll/internal/dtype"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// The oracle: scaleState's protocol written as straight-line code on a
// coroutine-backed rank. It issues the stepper's schedule of sleeps, waits,
// copies and puts call for call, so the two agree bit for bit on time, per-rank
// finish times and statistics; a change to either that the other does not
// share fails the tests below. It finds a node's tree neighbours from
// tree.New(Binomial) — whose children, largest first, it walks in reverse —
// and not from the stepper's mask loop.

// rankProc is one rank's part of the allreduce, the four phases of scaleState
// in order.
func (st *scaleState) rankProc(p *sim.Proc, s *SRM, tr tree.Tree, rank int, send, recv []byte) {
	m, n := s.m, st.n
	node, local := m.NodeOf(rank), m.LocalRank(rank)
	nd := &st.nodes[node]
	if local != 0 {
		for rep := 1; rep <= st.reps; rep++ {
			m.Memcpy(p, node, nd.contrib[local*n:(local+1)*n], send)
			nd.contribF[local].Set(rep)
			nd.resultF.WaitGE(p, rep)
			m.Memcpy(p, node, recv, nd.result)
		}
		return
	}
	ep := s.dom.Endpoint(rank)
	master := func(x int) *rma.Endpoint { return s.dom.Endpoint(x * m.Cfg.TasksPerNode) }
	kids := tr.Children[node]
	ep.SetInterrupts(false)
	for rep := 1; rep <= st.reps; rep++ {
		// Phase 1: fold local contributions into the private accumulator.
		m.Memcpy(p, node, nd.acc, send)
		for i := 1; i < len(nd.contribF); i++ {
			nd.contribF[i].WaitGE(p, rep)
			oracleCombine(p, m, nd.acc, nd.contrib[i*n:(i+1)*n])
		}
		// Phase 2: fold the children's slots, returning each credit only
		// after its slot is consumed so the child may pipeline rep+1.
		for i := len(kids) - 1; i >= 0; i-- {
			cn := &st.nodes[kids[i]]
			ep.Waitcntr(p, cn.arr, 1)
			oracleCombine(p, m, nd.acc, cn.slot)
			ep.PutZero(p, master(kids[i]), cn.upCredit)
		}
		if up := tr.Parent[node]; up >= 0 {
			ep.Waitcntr(p, nd.upCredit, 1)
			ep.Put(p, master(up), nd.slot, nd.acc, nil, nd.arr, nil)
			// Phase 3 (receive side): the result lands in the broadcast
			// buffer; publish it, then return the parent's credit.
			ep.Waitcntr(p, nd.bArr, 1)
			m.Memcpy(p, node, nd.result, nd.bBuf)
			ep.PutZero(p, master(up), nd.dCredit)
		} else {
			m.Memcpy(p, node, nd.result, nd.acc)
		}
		// Phase 4: release the locals, then forward down the tree.
		nd.resultF.Set(rep)
		for i := len(kids) - 1; i >= 0; i-- {
			cn := &st.nodes[kids[i]]
			ep.Waitcntr(p, cn.dCredit, 1)
			ep.Put(p, master(kids[i]), cn.bBuf, nd.result, nil, cn.bArr, nil)
		}
		m.Memcpy(p, node, recv, nd.result)
	}
}

// oracleCombine charges combine time for one slot and folds it into dst.
func oracleCombine(p *sim.Proc, m *machine.Machine, dst, src []byte) {
	p.Sleep(m.CombineTime(len(src)))
	m.Stats.AddReduce(len(src) / 8)
	dtype.Reduce(dtype.Sum, dtype.Int64, dst, src)
}

// scaleCase is one run of the allreduce, set up as package scale sets one up.
type scaleCase struct {
	name        string
	nodes, tpn  int
	bytes, reps int
	faults      *fault.Plan
}

type scaleOutcome struct {
	time    sim.Time
	perRank []sim.Time
	stats   trace.Stats
}

// runScale runs c with every rank a task stepping scaleState or, with oracle,
// a process running rankProc, and checks every rank's sum.
func runScale(c scaleCase, oracle bool) (*scaleOutcome, error) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(c.nodes, c.tpn))
	dom := rma.NewDomain(m)
	var deadline sim.Time
	if c.faults != nil {
		if c.faults.Active() {
			m.Faults = fault.New(*c.faults)
		}
		if c.faults.Reliable {
			dom.EnableReliable(c.faults.AckTimeout, c.faults.BackoffCap)
		}
		deadline = c.faults.Deadline
	}
	s := New(m, dom, Options{})
	P, n := m.P(), c.bytes
	send, recv := make([]byte, P*n), make([]byte, P*n)
	vals := make([]int64, n/8)
	for rank := 0; rank < P; rank++ {
		for j := range vals {
			vals[j] = int64(rank)*31 + int64(j)
		}
		dtype.PutInt64s(send[rank*n:(rank+1)*n], vals)
	}
	out := &scaleOutcome{perRank: make([]sim.Time, P)}
	if oracle {
		var st *scaleState
		s.build(&opEntry{}, func() any { st = newScaleState(s, n, c.reps, nil); return st })
		tr := tree.New(tree.Binomial, c.nodes, 0)
		for rank := 0; rank < P; rank++ {
			env.SpawnIndexed("rank", rank, func(p *sim.Proc) {
				st.rankProc(p, s, tr, rank, send[rank*n:(rank+1)*n], recv[rank*n:(rank+1)*n])
				out.perRank[rank] = p.Now()
			})
		}
	} else {
		s.ScaleAllreduce(c.reps, send, recv, out.perRank)
	}
	var err error
	if deadline > 0 {
		err = env.RunUntil(deadline)
	} else {
		err = env.Run()
	}
	if err != nil {
		return nil, err
	}
	if env.Live() > 0 {
		return nil, fault.Stalled(env, m.Faults)
	}
	base := int64(31 * P * (P - 1) / 2)
	for i := 0; i < len(recv); i += 8 {
		if v, want := int64(binary.LittleEndian.Uint64(recv[i:])), base+int64(P*(i%n/8)); v != want {
			return nil, fmt.Errorf("rank %d element %d = %d, want %d", i/n, i%n/8, v, want)
		}
	}
	out.time, out.stats = env.Now(), *m.Stats
	return out, nil
}

// scaleBoth runs c on the oracle and on the stepper and asserts what makes the
// oracle one: simulated time, every per-rank finish time and the whole
// statistics block bit-identical.
func scaleBoth(t *testing.T, c scaleCase) *scaleOutcome {
	t.Helper()
	or, err := runScale(c, true)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	st, err := runScale(c, false)
	if err != nil {
		t.Fatalf("stepper: %v", err)
	}
	if or.time != st.time {
		t.Errorf("completion time: oracle %v, stepper %v", or.time, st.time)
	}
	for rank := range or.perRank {
		if or.perRank[rank] != st.perRank[rank] {
			t.Errorf("rank %d finish: oracle %v, stepper %v", rank, or.perRank[rank], st.perRank[rank])
			break
		}
	}
	if or.stats != st.stats {
		t.Errorf("stats diverge:\n oracle  %+v\n stepper %+v", or.stats, st.stats)
	}
	return or
}

func TestScaleOracle(t *testing.T) {
	for _, c := range []scaleCase{
		{"4x8", 4, 8, 256, 2, nil},
		{"32x8", 32, 8, 512, 1, nil},
		{"64x16_pipelined", 64, 16, 128, 3, nil},
		{"flat_no_smp", 16, 1, 64, 2, nil},
		{"single_node_smp_only", 1, 8, 1024, 2, nil},
		{"non_power_of_two", 13, 3, 200, 2, nil},
	} {
		t.Run(c.name, func(t *testing.T) { scaleBoth(t, c) })
	}
}

// TestScaleOracleUnderFaults: channel drops and duplicates under the reliable
// ack/retransmit protocol, plus an interrupt storm. The wire machinery is
// shared callback code, so the two bodies must still agree bit for bit.
func TestScaleOracleUnderFaults(t *testing.T) {
	or := scaleBoth(t, scaleCase{"faults", 8, 4, 256, 2, &fault.Plan{
		Seed:     7,
		Drop:     0.08,
		Dup:      0.05,
		AckDrop:  0.05,
		Reliable: true,
		Storms:   []fault.Storm{{Node: 1, From: 20, Until: 600, Extra: 9}},
	}})
	if or.stats.Drops == 0 || or.stats.Retries == 0 {
		t.Errorf("fault plan took no effect: %+v", or.stats)
	}
}

// TestScaleOracleDeadline: a plan's deadline stops both bodies the same way,
// with a *fault.StallError naming the same blocked ranks at the same time.
func TestScaleOracleDeadline(t *testing.T) {
	c := scaleCase{"deadline", 4, 4, 64, 1, &fault.Plan{Seed: 3, Drop: 0.5, Reliable: true, Deadline: 5}}
	var reports [2]string
	for i, oracle := range []bool{true, false} {
		_, err := runScale(c, oracle)
		var se *fault.StallError
		if !errors.As(err, &se) || !errors.Is(err, fault.ErrDeadline) {
			t.Fatalf("run %d: err = %v, want a *fault.StallError matching ErrDeadline", i, err)
		}
		if se.Time > 5 || len(se.Blocked) == 0 {
			t.Errorf("run %d: stalled at t=%v with %d blocked, want t <= 5 and blocked ranks", i, se.Time, len(se.Blocked))
		}
		reports[i] = se.Error()
	}
	if reports[0] != reports[1] {
		t.Errorf("the bodies stall differently:\n--- oracle\n%s\n--- stepper\n%s", reports[0], reports[1])
	}
}

// TestScaleOracleUnderWindowCheck reruns the tests above with the RMA layer's
// put-window check on: a clean-wire put poisons its target window at issue and
// reports a *check.WindowError if anything wrote the window before it landed,
// so a reduce slot or broadcast buffer reused ahead of its credit is named, on
// either body. The lossy rows keep their snapshots and run as they do without
// the check.
func TestScaleOracleUnderWindowCheck(t *testing.T) {
	rma.CheckWindows(true)
	defer rma.CheckWindows(false)
	t.Run("shapes", TestScaleOracle)
	t.Run("faults", TestScaleOracleUnderFaults)
	t.Run("deadline", TestScaleOracleDeadline)
}
