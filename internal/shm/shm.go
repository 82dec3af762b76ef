// Package shm models the synchronization of an SMP node's shared-memory
// domain: flags (one per cache line, as in the paper §2.2) with the
// spin-with-yield policy of §2.4. The shared buffers themselves are byte
// slices the protocols carve (internal/core), and copies into and out of them
// are charged through the machine cost model, including memory-bus contention.
package shm

import (
	"fmt"
	"strconv"

	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
)

// Flag is a synchronization word in shared memory, assumed to occupy its
// own cache line. Setting it is an ordinary store; waiters observe the new
// value after the machine's wake latency (slightly higher when the spin
// loop yields its time slice, see machine.WakeLatency). The condition its
// waiters park on is embedded by value, so a flag is one piece of memory: an
// element of a NewFlags slab, or of a slab its owner carved and bound with
// Init. It is 40 bytes and holds no machine: it finds the one its environment
// runs on (sim.Env.Host).
type Flag struct {
	val, node int32
	cond      sim.Cond
}

// NewFlag creates a flag in node's shared memory, initialized to zero.
func NewFlag(m *machine.Machine, node int) *Flag {
	return &NewFlags(m, node, 1)[0]
}

// NewFlags creates n zero flags on the node as one slab. Hold the flags by
// pointer into the slice; a Flag must not be copied.
func NewFlags(m *machine.Machine, node, n int) []Flag {
	fs := make([]Flag, n)
	for i := range fs {
		fs[i].Init(m, node)
	}
	return fs
}

// Init places a zero Flag in node's shared memory, drawing its report id
// exactly as NewFlag does.
func (f *Flag) Init(m *machine.Machine, node int) {
	f.node = narrow(node)
	f.cond.Init(m.Env)
}

// narrow returns v, a flag's value or node, as the flag's int32, panicking
// when it does not fit.
func narrow(v int) int32 {
	if int(int32(v)) != v {
		panic("shm: " + strconv.Itoa(v) + " does not fit a flag's int32")
	}
	return int32(v)
}

// machineOf returns the machine the flag's environment runs on.
func (f *Flag) machineOf() *machine.Machine { return f.cond.Env().Host.(*machine.Machine) }

// Set stores v. The store itself is free for the setter; spinning waiters
// observe it after the wake latency.
func (f *Flag) Set(v int) {
	f.val = narrow(v)
	f.cond.BroadcastAfter(f.machineOf().WakeLatency())
}

// WaitGE spins until the flag value is >= v: WaitGET from a process body.
func (f *Flag) WaitGE(p *sim.Proc, v int) {
	f.WaitGEK(&p.Task, v, p.Resume())
	p.Park()
}

// WaitFor spins until the flag equals v: WaitForT from a process body.
func (f *Flag) WaitFor(p *sim.Proc, v int) {
	f.WaitForK(&p.Task, v, p.Resume())
	p.Park()
}

// WaitGET is WaitGEK with a closure for k.
func (f *Flag) WaitGET(t *sim.Task, v int, k func()) { f.WaitGEK(t, v, sim.Func(k)) }

// WaitGEK spins until the flag value is >= v (machine.SpinT), then resumes
// with k. This covers the monotone counter waits of the SMP collectives
// (§2.2). A flag already at the value runs k within the current step: no
// virtual time passes.
func (f *Flag) WaitGEK(t *sim.Task, v int, k sim.K) {
	if int(f.val) >= v {
		k.Resume()
		return
	}
	f.machineOf().SpinT(t, int(f.node), &f.cond, f, &f.val, v, false, k)
}

// WaitForT is WaitForK with a closure for k.
func (f *Flag) WaitForT(t *sim.Task, v int, k func()) { f.WaitForK(t, v, sim.Func(k)) }

// WaitForK spins until the flag equals v, then resumes with k.
func (f *Flag) WaitForK(t *sim.Task, v int, k sim.K) {
	if int(f.val) == v {
		k.Resume()
		return
	}
	f.machineOf().SpinT(t, int(f.node), &f.cond, f, &f.val, v, true, k)
}

// DescribeWait implements sim.WaitDescriber for stall reports.
func (f *Flag) DescribeWait(want int) string {
	if want >= 0 {
		return fmt.Sprintf("shm flag %s on node %d: value %d, want %d",
			f.cond.ID(), f.node, f.val, want)
	}
	return fmt.Sprintf("shm flag %s on node %d: value %d", f.cond.ID(), f.node, f.val)
}

// FlagSet is one flag per local task, as used by the SMP barrier and
// broadcast (§2.2): "each flag is located on a different cache line".
type FlagSet struct {
	flags []Flag
}

// NewFlagSet creates n zero flags on the node.
func NewFlagSet(m *machine.Machine, node, n int) *FlagSet {
	return &FlagSet{flags: NewFlags(m, node, n)}
}

// Flag returns the i-th flag.
func (fs *FlagSet) Flag(i int) *Flag { return &fs.flags[i] }

// WaitAll spins until every flag except those listed in skip equals v, one
// flag at a time in index order. The master uses it to wait for all other
// tasks to check in.
func (fs *FlagSet) WaitAll(p *sim.Proc, v int, skip ...int) {
	for i := range fs.flags {
		sk := false
		for _, s := range skip {
			if s == i {
				sk = true
				break
			}
		}
		if sk {
			continue
		}
		fs.flags[i].WaitFor(p, v)
	}
}

// WaitAllT is WaitAll in continuation form: k runs once every flag has been
// passed.
func (fs *FlagSet) WaitAllT(t *sim.Task, v int, k func(), skip ...int) {
	var step func(i int)
	step = func(i int) {
		for {
			if i >= len(fs.flags) {
				k()
				return
			}
			sk := false
			for _, s := range skip {
				if s == i {
					sk = true
					break
				}
			}
			if !sk {
				break
			}
			i++
		}
		fs.flags[i].WaitForK(t, v, sim.Func(func() { step(i + 1) }))
	}
	step(0)
}
