package rma

import (
	"bytes"
	"fmt"
	"testing"

	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

// faultyPair builds a 2-node, 1-task-per-node machine with the given fault
// plan attached and reliable mode per plan.Reliable.
func faultyPair(plan fault.Plan) (*sim.Env, *machine.Machine, *Domain) {
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 1))
	m.Faults = fault.New(plan)
	d := NewDomain(m)
	if plan.Reliable {
		d.EnableReliable(plan.AckTimeout, plan.BackoffCap)
	}
	return env, m, d
}

func TestReliablePutSurvivesDrops(t *testing.T) {
	const n = 40
	env, m, d := faultyPair(fault.Plan{Seed: 11, Drop: 0.5, Reliable: true})
	tgt := d.NewCounter(0)
	got := make([][]byte, n)
	env.Spawn("recv", func(p *sim.Proc) {
		d.Endpoint(1).Waitcntr(p, tgt, n)
	})
	env.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			got[i] = make([]byte, 8)
			src := []byte(fmt.Sprintf("msg %04d", i))
			d.Endpoint(0).Put(p, d.Endpoint(1), got[i], src, nil, tgt, nil)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := fmt.Sprintf("msg %04d", i)
		if string(got[i]) != want {
			t.Errorf("put %d delivered %q, want %q", i, got[i], want)
		}
	}
	if m.Stats.Drops == 0 || m.Stats.Retries == 0 {
		t.Fatalf("50%% drop run recorded drops=%d retries=%d; want both > 0", m.Stats.Drops, m.Stats.Retries)
	}
	if m.Stats.AckTimeouts < m.Stats.Retries {
		t.Fatalf("retries=%d without matching ack timeouts=%d", m.Stats.Retries, m.Stats.AckTimeouts)
	}
}

func TestReliablePutSuppressesDuplicates(t *testing.T) {
	env, m, d := faultyPair(fault.Plan{Seed: 5, Dup: 1, Reliable: true})
	tgt := d.NewCounter(0)
	dst := make([]byte, 4)
	env.Spawn("recv", func(p *sim.Proc) {
		ep := d.Endpoint(1)
		ep.Waitcntr(p, tgt, 1)
		p.Sleep(500) // stay alive long enough for the duplicate to arrive
		ep.drainPending(&p.Task, p.Resume())
		p.Park()
		if tgt.val != 0 {
			t.Errorf("duplicate reached the target counter: value %d, want 0", tgt.val)
		}
	})
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, []byte("data"), nil, tgt, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.DupsSuppressed == 0 {
		t.Fatalf("forced duplication suppressed none: %+v", m.Stats)
	}
}

func TestReliableAckDropForcesRetransmit(t *testing.T) {
	// Every first ack is lost; the origin must time out and retransmit,
	// and the retransmitted data must be suppressed as a duplicate.
	env, m, d := faultyPair(fault.Plan{Seed: 9, AckDrop: 0.5, Reliable: true})
	tgt := d.NewCounter(0)
	compl := d.NewCounter(0)
	const n = 30
	env.Spawn("recv", func(p *sim.Proc) {
		d.Endpoint(1).Waitcntr(p, tgt, n)
	})
	env.Spawn("send", func(p *sim.Proc) {
		ep := d.Endpoint(0)
		for i := 0; i < n; i++ {
			ep.Put(p, d.Endpoint(1), make([]byte, 8), bytes.Repeat([]byte{byte(i)}, 8), nil, tgt, compl)
		}
		ep.Waitcntr(p, compl, n) // every put must eventually complete
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Retries == 0 || m.Stats.DupsSuppressed == 0 {
		t.Fatalf("ack-drop run: retries=%d dupsSuppressed=%d; want both > 0",
			m.Stats.Retries, m.Stats.DupsSuppressed)
	}
}

func TestEnableReliableIdempotent(t *testing.T) {
	// Calling EnableReliable again (e.g. to tighten timeouts mid-run) must
	// not discard the per-channel sequence counters and dedup state. The
	// second call here lands between a put's first delivery and its forced
	// duplicate: if the call re-made the seen map, the duplicate would no
	// longer be recognized and would hit the target counter twice.
	env, m, d := faultyPair(fault.Plan{Seed: 5, Dup: 1, Reliable: true})
	d.EnableReliable(0, 0) // immediate re-enable before any traffic: no-op
	tgt := d.NewCounter(0)
	dst := make([]byte, 4)
	env.Spawn("recv", func(p *sim.Proc) {
		ep := d.Endpoint(1)
		ep.Waitcntr(p, tgt, 1)
		d.EnableReliable(0, 0) // re-enable with the duplicate still in flight
		p.Sleep(500)
		ep.drainPending(&p.Task, p.Resume())
		p.Park()
		if tgt.val != 0 {
			t.Errorf("duplicate delivered after re-enable: counter %d, want 0", tgt.val)
		}
	})
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), dst, []byte("data"), nil, tgt, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "data" {
		t.Fatalf("payload = %q, want %q", dst, "data")
	}
	if m.Stats.DupsSuppressed == 0 {
		t.Fatalf("forced duplicate not suppressed after double EnableReliable: %+v", m.Stats)
	}
}

func TestUnreliableDropLosesPut(t *testing.T) {
	// Without reliable mode a dropped put is gone: the counter never
	// fires and the run deadlocks with a structured report.
	env, m, d := faultyPair(fault.Plan{Seed: 1, Drop: 1})
	tgt := d.NewCounter(0)
	env.Spawn("recv", func(p *sim.Proc) {
		d.Endpoint(1).Waitcntr(p, tgt, 1)
	})
	env.Spawn("send", func(p *sim.Proc) {
		d.Endpoint(0).Put(p, d.Endpoint(1), make([]byte, 4), []byte("lost"), nil, tgt, nil)
	})
	err := env.Run()
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if m.Stats.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", m.Stats.Drops)
	}
	if len(de.Procs) != 1 || de.Procs[0].Name != "recv" {
		t.Fatalf("blocked procs = %+v, want [recv]", de.Procs)
	}
	if de.Procs[0].Waiting == "" {
		t.Fatal("blocked proc has no wait context")
	}
}

func TestReliableCleanRunNoRetries(t *testing.T) {
	// Reliable mode on a clean network must not retransmit spuriously.
	env := sim.NewEnv()
	m := machine.New(env, machine.ColonySP(2, 1))
	d := NewDomain(m)
	d.EnableReliable(0, 0)
	tgt := d.NewCounter(0)
	compl := d.NewCounter(0)
	dst := make([]byte, 8)
	env.Spawn("recv", func(p *sim.Proc) {
		d.Endpoint(1).Waitcntr(p, tgt, 1)
	})
	env.Spawn("send", func(p *sim.Proc) {
		ep := d.Endpoint(0)
		ep.Put(p, d.Endpoint(1), dst, []byte("reliable"), nil, tgt, compl)
		ep.Waitcntr(p, compl, 1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "reliable" {
		t.Fatalf("payload = %q", dst)
	}
	if m.Stats.Retries != 0 || m.Stats.AckTimeouts != 0 || m.Stats.Drops != 0 {
		t.Fatalf("clean reliable run recorded faults: %+v", m.Stats)
	}
}
