// Package shm models the intra-node shared-memory domain of an SMP node:
// byte segments that all tasks of a node can address, and synchronization
// flags (one per cache line, as in the paper §2.2) with the spin-with-yield
// policy of §2.4. Data movement is real — segments are byte slices and
// copies actually move bytes — while time is charged through the machine
// cost model, including memory-bus contention.
package shm

import (
	"fmt"
	"sync"

	"srmcoll/internal/machine"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
)

// Flag is a synchronization word in shared memory, assumed to occupy its
// own cache line. Setting it is an ordinary store; waiters observe the new
// value after the machine's wake latency (slightly higher when the spin
// loop yields its time slice, see machine.WakeLatency). The condition its
// waiters park on is embedded by value, so a flag is one piece of memory: an
// element of a NewFlags slab, or of a slab its owner carved and bound with
// Init.
type Flag struct {
	m    *machine.Machine
	node int
	val  int
	cond sim.Cond
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
	f.m, f.node = m, node
	f.cond.Init(m.Env)
}

// Load returns the current value without waiting.
func (f *Flag) Load() int { return f.val }

// Set stores v. The store itself is free for the setter; spinning waiters
// observe it after the wake latency.
func (f *Flag) Set(v int) {
	f.val = v
	f.cond.BroadcastAfter(f.m.WakeLatency())
}

// WaitGE spins until the flag value is >= v: WaitGET from a process body.
func (f *Flag) WaitGE(p *sim.Proc, v int) {
	f.WaitGET(&p.Task, v, p.Resume())
	p.Park()
}

// WaitFor spins until the flag equals v: WaitForT from a process body.
func (f *Flag) WaitFor(p *sim.Proc, v int) {
	f.WaitForT(&p.Task, v, p.Resume())
	p.Park()
}

// flagWait is the pooled frame of a parked flag wait. It is the wait itself
// (sim.WaitFrame): the Task holds it as one interface value and asks it on
// every wake-up whether the flag has reached the value, so a park binds no
// predicate or continuation closure and a frame the pool could not supply
// costs one allocation. A frame is live from park to resume (a task parks on
// at most one thing at a time, and the simulator drops stale waiters on
// interrupt or death, so reuse is safe).
type flagWait struct {
	f  *Flag
	t  *sim.Task
	v  int
	eq bool // wait for == v rather than >= v
	id int  // open trace span
	k  func()

	unwindFn func() // fr.unwind, bound once per frame
}

var flagWaitPool = sync.Pool{New: func() any { return new(flagWait) }}

func (fr *flagWait) Ready() bool {
	if fr.eq {
		return fr.f.val == fr.v
	}
	return fr.f.val >= fr.v
}

func (fr *flagWait) Resume() {
	f, t, id, k := fr.f, fr.t, fr.id, fr.k
	fr.release()
	t.PopUnwind()
	f.m.SpinExit(f.node)
	f.m.Env.Trace.End(id)
	k()
}

// unwind is the frame's compensation when a kill or interrupt abandons the
// wait: a phantom spinner would inflate the node's starvation penalty for
// good. The waiter entry is already dropped by the delivery, so the frame can
// be recycled along with exiting the spinner set.
func (fr *flagWait) unwind() {
	f, id := fr.f, fr.id
	fr.release()
	f.m.SpinExit(f.node)
	f.m.Env.Trace.End(id)
}

func (fr *flagWait) release() {
	*fr = flagWait{unwindFn: fr.unwindFn}
	flagWaitPool.Put(fr)
}

// park arms a pooled wait frame for f and suspends t until the flag reaches
// v. While parked the task is counted as a (possibly non-yielding) spinner on
// its node, which the RMA layer consults for delivery starvation.
func (f *Flag) park(t *sim.Task, v int, eq bool, k func()) {
	fr := flagWaitPool.Get().(*flagWait)
	fr.f, fr.t, fr.v, fr.eq, fr.k = f, t, v, eq, k
	fr.id = f.m.Env.Trace.Begin(t.Track(), trace.ClassWaitFlag, "wait:flag", 0)
	f.m.SpinEnter(f.node)
	if t.UnwindArmed() {
		if fr.unwindFn == nil {
			fr.unwindFn = fr.unwind
		}
		t.PushUnwind(fr.unwindFn)
	}
	f.cond.WaitFrameT(t, f, v, fr)
}

// WaitGET spins until the flag value is >= v, then resumes with k. This
// covers the monotone counter waits of the SMP collectives (§2.2). A flag
// already at the value runs k within the current step: no virtual time
// passes.
func (f *Flag) WaitGET(t *sim.Task, v int, k func()) {
	if f.val >= v {
		k()
		return
	}
	f.park(t, v, false, k)
}

// WaitForT spins until the flag equals v, then resumes with k.
func (f *Flag) WaitForT(t *sim.Task, v int, k func()) {
	if f.val == v {
		k()
		return
	}
	f.park(t, v, true, k)
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

// Len returns the number of flags.
func (fs *FlagSet) Len() int { return len(fs.flags) }

// Flag returns the i-th flag.
func (fs *FlagSet) Flag(i int) *Flag { return &fs.flags[i] }

// SetAll stores v into every flag.
func (fs *FlagSet) SetAll(v int) {
	for i := range fs.flags {
		fs.flags[i].Set(v)
	}
}

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
		fs.flags[i].WaitForT(t, v, func() { step(i + 1) })
	}
	step(0)
}

// Segment is a byte buffer in a node's shared memory.
type Segment struct {
	m    *machine.Machine
	node int
	buf  []byte
}

// NewSegment allocates a size-byte segment on the node.
func NewSegment(m *machine.Machine, node, size int) *Segment {
	return &Segment{m: m, node: node, buf: make([]byte, size)}
}

// Node returns the hosting node.
func (s *Segment) Node() int { return s.node }

// Len returns the segment size.
func (s *Segment) Len() int { return len(s.buf) }

// Bytes exposes the backing storage. Remote memory access (put) targets
// shared segments through this view; intra-node users should prefer
// CopyIn/CopyOut so copy time is charged.
func (s *Segment) Bytes() []byte { return s.buf }

// Slice returns the sub-range [off, off+n) of the segment.
func (s *Segment) Slice(off, n int) []byte {
	if off < 0 || n < 0 || off+n > len(s.buf) {
		panic(fmt.Sprintf("shm: slice [%d,%d) out of segment of %d bytes", off, off+n, len(s.buf)))
	}
	return s.buf[off : off+n]
}

// CopyIn is CopyInT from a process body.
func (s *Segment) CopyIn(p *sim.Proc, off int, src []byte) {
	s.CopyInT(&p.Task, off, src, p.Resume())
	p.Park()
}

// CopyOut is CopyOutT from a process body.
func (s *Segment) CopyOut(p *sim.Proc, dst []byte, off int) {
	s.CopyOutT(&p.Task, dst, off, p.Resume())
	p.Park()
}

// CopyInT copies src into the segment at off, charging contended copy time,
// then runs k.
func (s *Segment) CopyInT(t *sim.Task, off int, src []byte, k func()) {
	s.m.MemcpyT(t, s.node, s.Slice(off, len(src)), src, k)
}

// CopyOutT copies the segment range starting at off into dst, then runs k.
func (s *Segment) CopyOutT(t *sim.Task, dst []byte, off int, k func()) {
	s.m.MemcpyT(t, s.node, dst, s.Slice(off, len(dst)), k)
}
