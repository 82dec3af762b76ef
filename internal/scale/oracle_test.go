package scale

import (
	"errors"
	"testing"

	"srmcoll/internal/dtype"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/sim"
)

// The oracle: the protocol of task.go written as straight-line code on a
// coroutine-backed rank. It issues the state machine's schedule of sleeps,
// waits, copies and puts call for call, so the two agree bit for bit on time,
// per-rank finish times and statistics; a change to either that the other does
// not share fails the equivalence tests below.

// oracle runs cfg with every rank on rankProc.
func oracle(cfg Config) (*Result, error) { return runWith(cfg, (*run).spawnProcs) }

// spawnProcs starts every rank as a process running rankProc.
func (r *run) spawnProcs() {
	for rank := 0; rank < r.m.P(); rank++ {
		rank := rank
		r.m.Env.SpawnIndexed("rank", rank, func(p *sim.Proc) { r.rankProc(p, rank) })
	}
}

// rankProc is one rank's allreduce, the four phases of the package
// documentation in order.
func (r *run) rankProc(p *sim.Proc, rank int) {
	m := r.m
	n := r.n
	node := m.NodeOf(rank)
	local := m.LocalRank(rank)
	ns := r.nodes[node]
	ep := r.dom.Endpoint(rank)
	reps := r.cfg.Reps

	if local != 0 {
		for rep := 1; rep <= reps; rep++ {
			ns.contrib.CopyInT(&p.Task, local*n, r.send[rank], p.Resume())
			p.Park()
			ns.contribF.Flag(local).Set(rep)
			ns.resultF.WaitGE(p, rep)
			ns.resultSeg.CopyOutT(&p.Task, r.recv[rank], 0, p.Resume())
			p.Park()
		}
		r.perRank[rank] = p.Now()
		return
	}

	// Masters drive the inter-node protocol with interrupts off (§2.3's
	// small-message regime).
	ep.SetInterrupts(false)
	var ps *nodeState
	var pep *rma.Endpoint
	if ns.parent >= 0 {
		ps = r.nodes[ns.parent]
		pep = r.dom.Endpoint(ps.master)
	}
	tpn := m.Cfg.TasksPerNode

	for rep := 1; rep <= reps; rep++ {
		// Phase 1: fold local contributions into the private accumulator.
		m.Memcpy(p, node, ns.acc, r.send[rank])
		for i := 1; i < tpn; i++ {
			ns.contribF.Flag(i).WaitGE(p, rep)
			r.combine(p, ns.acc, ns.contrib.Slice(i*n, n))
		}
		// Phase 2: fold the children's slots, returning each credit only
		// after its slot is consumed so the child may pipeline rep+1.
		for ci, ch := range ns.children {
			cs := r.nodes[ch]
			ep.Waitcntr(p, ns.rArr[ci], 1)
			r.combine(p, ns.acc, ns.rSlots[ci])
			ep.PutZero(p, r.dom.Endpoint(cs.master), cs.upCredit)
		}
		if ns.parent >= 0 {
			ep.Waitcntr(p, ns.upCredit, 1)
			ep.Put(p, pep, ps.rSlots[ns.childPos], ns.acc, nil, ps.rArr[ns.childPos], nil)
			// Phase 3 (receive side): the result lands in the broadcast
			// buffer; publish it, then return the parent's credit.
			ep.Waitcntr(p, ns.bArr, 1)
			m.Memcpy(p, node, ns.resultSeg.Bytes(), ns.bBuf)
			ep.PutZero(p, pep, ps.dCredit[ns.childPos])
		} else {
			m.Memcpy(p, node, ns.resultSeg.Bytes(), ns.acc)
		}
		// Phase 4: release the locals, then forward down the tree.
		ns.resultF.Set(rep)
		for ci, ch := range ns.children {
			cs := r.nodes[ch]
			ep.Waitcntr(p, ns.dCredit[ci], 1)
			ep.Put(p, r.dom.Endpoint(cs.master), cs.bBuf, ns.resultSeg.Bytes(), nil, cs.bArr, nil)
		}
		m.Memcpy(p, node, r.recv[rank], ns.resultSeg.Bytes())
	}
	r.perRank[rank] = p.Now()
}

// combine charges combine time for one slot and folds it into dst.
func (r *run) combine(p *sim.Proc, dst, src []byte) {
	p.Sleep(r.m.CombineTime(len(src)))
	r.m.Stats.AddReduce(len(src) / 8)
	dtype.Reduce(dtype.Sum, dtype.Int64, dst, src)
}

// runBoth executes the same configuration on the oracle and on the task body
// and asserts what makes the oracle one: simulated time, every per-rank finish
// time, and the whole machine statistics block bit-identical.
func runBoth(t *testing.T, cfg Config) (*Result, *Result) {
	t.Helper()
	pr, err := oracle(cfg)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	tr, err := Run(cfg)
	if err != nil {
		t.Fatalf("tasks: %v", err)
	}
	if pr.Time != tr.Time {
		t.Errorf("completion time: oracle %v, tasks %v", pr.Time, tr.Time)
	}
	for rank := range pr.PerRank {
		if pr.PerRank[rank] != tr.PerRank[rank] {
			t.Errorf("rank %d finish: oracle %v, tasks %v", rank, pr.PerRank[rank], tr.PerRank[rank])
			break
		}
	}
	if pr.Stats != tr.Stats {
		t.Errorf("stats diverge:\n oracle %+v\n tasks  %+v", pr.Stats, tr.Stats)
	}
	return pr, tr
}

func TestEngineEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		nodes, tpn  int
		bytes, reps int
	}{
		{"4x8", 4, 8, 256, 2},
		{"32x8", 32, 8, 512, 1},
		{"64x16_pipelined", 64, 16, 128, 3},
		{"flat_no_smp", 16, 1, 64, 2},
		{"single_node_smp_only", 1, 8, 1024, 2},
		{"non_power_of_two", 13, 3, 200, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runBoth(t, Config{
				Machine: machine.ColonySP(tc.nodes, tc.tpn),
				Bytes:   tc.bytes,
				Reps:    tc.reps,
				Verify:  true,
			})
		})
	}
}

func TestEngineEquivalenceUnderFaults(t *testing.T) {
	// Channel drops and duplicates under the reliable ack/retransmit
	// protocol, plus an interrupt storm: the wire machinery is shared
	// callback code, so the two bodies must still agree bit for bit.
	plan := &fault.Plan{
		Seed:     7,
		Drop:     0.08,
		Dup:      0.05,
		AckDrop:  0.05,
		Reliable: true,
		Storms:   []fault.Storm{{Node: 1, From: 20, Until: 600, Extra: 9}},
	}
	pr, _ := runBoth(t, Config{
		Machine: machine.ColonySP(8, 4),
		Bytes:   256,
		Reps:    2,
		Faults:  plan,
		Verify:  true,
	})
	if pr.Stats.Drops == 0 || pr.Stats.Retries == 0 {
		t.Errorf("fault plan took no effect: %+v", pr.Stats)
	}
}

// TestEngineEquivalenceDeadline: a plan's deadline stops both bodies the same
// way, with a *fault.StallError naming the same blocked ranks at the same time.
func TestEngineEquivalenceDeadline(t *testing.T) {
	cfg := Config{
		Machine: machine.ColonySP(4, 4),
		Bytes:   64,
		Faults:  &fault.Plan{Seed: 3, Drop: 0.5, Reliable: true, Deadline: 5},
	}
	var reports [2]string
	for i, body := range []func(Config) (*Result, error){oracle, Run} {
		_, err := body(cfg)
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
		t.Errorf("the bodies stall differently:\n--- oracle\n%s\n--- tasks\n%s", reports[0], reports[1])
	}
}

// TestEngineEquivalenceUnderWindowCheck reruns the matrix above with the RMA
// layer's put-window check on: a clean-wire put poisons its target window at
// issue and reports a *check.WindowError if anything wrote the window before
// it landed, so a reduce slot or broadcast buffer reused ahead of its credit
// is named, on either body. The lossy rows keep their snapshots and run as
// they do without the check.
func TestEngineEquivalenceUnderWindowCheck(t *testing.T) {
	rma.CheckWindows(true)
	defer rma.CheckWindows(false)
	t.Run("shapes", TestEngineEquivalence)
	t.Run("faults", TestEngineEquivalenceUnderFaults)
	t.Run("deadline", TestEngineEquivalenceDeadline)
}
