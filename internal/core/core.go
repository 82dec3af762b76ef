// Package core implements the paper's contribution: SRM
// (Shared-Remote-Memory) collective operations — barrier, broadcast,
// reduce and allreduce — built directly on shared memory inside each SMP
// node and one-sided RMA (put) between nodes, instead of on point-to-point
// message passing.
//
// The structure follows §2 of the paper:
//
//   - communication trees are embedded into the cluster so that intra-node
//     edges use shared memory and only one master task per node touches the
//     network (internal/tree);
//   - the SMP broadcast uses a flat algorithm with two shared buffers and
//     per-task READY flags (Figure 3); the SMP reduce uses a binomial tree
//     where only the lowest level copies data (Figure 2); the SMP barrier
//     uses one flag per task and a master that resets them;
//   - between nodes, broadcast uses put into two per-node shared buffers
//     with counter-based flow control for small messages and address
//     exchange plus direct puts into user buffers for large ones
//     (Figure 4); reduce pipelines chunks up the tree; allreduce uses
//     recursive-doubling pairwise exchange up to 16 KB and a four-stage
//     chunk pipeline above (Figure 5); barrier uses dissemination-style
//     pairwise puts;
//   - interrupts are disabled during small-message operations and
//     re-enabled on completion (§2.3).
//
// Every operation moves real bytes; tests verify results against
// sequential references. Every operation's per-rank control flow is written
// once, as steps of a sim.Task (exec.go): XT(t *sim.Task, ..., kont) runs kont
// when done, and X(p *sim.Proc, ...) is XT on the process's own task with the
// body parked until then.
package core

import (
	"fmt"

	"srmcoll/internal/bufpool"
	"srmcoll/internal/machine"
	"srmcoll/internal/rma"
	"srmcoll/internal/shm"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
)

// smallMsgInterruptLimit is the size at or below which masters turn
// interrupts off for the duration of the operation (§2.3).
const smallMsgInterruptLimit = 4096

// Options selects algorithm variants; the zero value is the paper's
// configuration. The ablation benches flip individual fields.
type Options struct {
	InterTree   tree.Kind // tree between node masters (default Binomial, §2.1)
	IntraTree   tree.Kind // tree for the SMP reduce (default Binomial)
	TreeSMPBcst bool      // use a tree-based SMP broadcast instead of the
	// flat two-buffer algorithm (the variant §2.2 found inferior)
	BarrierSMPBcst bool // arbitrate shared buffers with SMP barriers, the
	// Sistare-style design §4 contrasts with (more sensitive to late arrivals)
	KeepInterrupts bool // never disable interrupts for small messages (§2.3 off)

	// TreeFor, when set, resolves the inter-node tree kind per operation
	// ("bcast", "reduce", "allreduce") and message size, overriding
	// InterTree. The autotuner's decision table installs a resolver here;
	// nil keeps the static InterTree for every operation.
	TreeFor func(op string, size int) tree.Kind

	// AllreduceAlg selects the allreduce algorithm family (default AlgAuto,
	// the paper's size-switched recursive-doubling / chunk-pipeline pair).
	AllreduceAlg Alg
	// AlgFor, when set, resolves the allreduce algorithm per message size;
	// a non-Auto return overrides AllreduceAlg. The autotuner's decision
	// table installs a resolver here.
	AlgFor func(size int) Alg
}

// interKind resolves the inter-node tree kind for one operation instance.
func (s *SRM) interKind(op string, size int) tree.Kind {
	if s.opt.TreeFor != nil {
		return s.opt.TreeFor(op, size)
	}
	return s.opt.InterTree
}

// Alg selects the allreduce algorithm family between node masters. The SMP
// stages (Figure-2 reduce in, Figure-3 broadcast out) are shared by every
// family; Alg only changes the inter-node exchange.
type Alg int

const (
	// AlgAuto is the paper's configuration: recursive doubling up to
	// SRMAllreduceRD bytes, the four-stage chunk pipeline above.
	AlgAuto Alg = iota
	// AlgRing is the bandwidth-optimal ring: a reduce-scatter pass followed
	// by an allgather pass, each node sending to its right neighbour.
	AlgRing
	// AlgRHD is Rabenseifner's recursive halving/doubling: halve the vector
	// while reduce-scattering across power-of-two masters, then double back
	// up in an allgather; non-power-of-two counts fold extras in and out.
	AlgRHD
	// AlgDualRoot is Träff's doubly-pipelined dual-root scheme: chunks
	// alternate between two trees rooted at different nodes so both the
	// reduce and broadcast pipelines stay busy in both directions.
	AlgDualRoot
)

// String returns the tuner/Variant spelling of the algorithm.
func (a Alg) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgRing:
		return "ring"
	case AlgRHD:
		return "rhd"
	case AlgDualRoot:
		return "dualroot"
	}
	return fmt.Sprintf("Alg(%d)", int(a))
}

// ParseAlg parses the spelling String produces.
func ParseAlg(s string) (Alg, error) {
	switch s {
	case "auto", "":
		return AlgAuto, nil
	case "ring":
		return AlgRing, nil
	case "rhd":
		return AlgRHD, nil
	case "dualroot":
		return AlgDualRoot, nil
	}
	return AlgAuto, fmt.Errorf("core: unknown allreduce algorithm %q", s)
}

// allreduceAlg resolves the algorithm for one allreduce instance. The
// resolver is a pure function of the message size, so every rank of a group
// picks the same family for the same call.
func (s *SRM) allreduceAlg(size int) Alg {
	if s.opt.AlgFor != nil {
		if a := s.opt.AlgFor(size); a != AlgAuto {
			return a
		}
	}
	return s.opt.AllreduceAlg
}

// SRM is the collective-operations engine for one machine. All tasks share
// one SRM instance and call its methods SPMD-style from their simulated
// processes; every task must make the same sequence of collective calls.
// The paper's four operations are methods on SRM over all ranks; World
// returns the group of all ranks, which has every operation, and SRM.Group
// carves out arbitrary task subsets (§5).
type SRM struct {
	m      *machine.Machine
	dom    *rma.Domain
	opt    Options
	groups map[uint64][]*Group // by ranks.Hash of the member list
	world  *Group
	free   []*exec // idle executors

	// The intra-node trees asked for so far (intraTree). The cache is the
	// engine's and so the run's: runs of one cluster may overlap in time.
	trees map[treeKey]tree.Tree

	building *opEntry // the entry whose state Group.acquire is constructing

	// The entries every member has left: in good order, oldest first, their
	// flags and counters waiting for the last wake-up a Set scheduled (settled);
	// and those that must keep theirs until the run is over (Group.retire).
	retired, kept []*opEntry

	// The executors of the run, behind the free list (DESIGN.md §9).
	execMem bufpool.Chunks[exec]
}

// opEntry is one collective call of a group: the state its members share,
// how many of them have left it, and the protocol buffers, flags and counters
// it owns.
type opEntry struct {
	state   any
	done    int
	aborted bool     // a member left by interrupt, kill or panic
	bufs    [][]byte // pooled buffers, returned by Group.retire
	slab    []byte   // the part of the newest slab not yet handed out

	// The flags and counters the state constructor carved (build), released
	// once nothing can reach them (Group.retire, SRM.settled).
	flagMem   bufpool.Chunks[shm.Flag]
	cntrMem   bufpool.Chunks[rma.Counter]
	retiredAt sim.Time
}

// Small slots are carved out of pooled slabs, slots above slabMax get a
// pooled buffer of their own. An operation over many ranks owns that many
// small slots; as separate pool entries they cost more memory parked in the
// free lists than recycling saves (65,536 ranks x 2 x 64-byte reduce slots
// took rank_ladder's peak RSS from 406 to 472 MB), as slab carvings they
// cost one entry per slabSize bytes.
const (
	slabSize = 16 << 10
	slabMax  = slabSize / 4
)

// slot returns an n-byte protocol buffer (an SMP staging buffer, a reduce
// slot, an inter-node receive slot) owned by the operation entry under
// construction: the simulator's form of the paper's shared buffers that are
// set up once and recycled (§2.3). The memory comes from the machine's pool
// and holds whatever its previous owner left — every protocol writes a slot
// byte before anything reads it.
func (s *SRM) slot(n int) []byte {
	e := s.building
	if n > slabMax {
		b := s.m.Buffers.Get(n)
		e.bufs = append(e.bufs, b)
		return b
	}
	if len(e.slab) < n {
		e.slab = s.m.Buffers.Get(slabSize)
		e.bufs = append(e.bufs, e.slab)
	}
	b := e.slab[:n:n]
	e.slab = e.slab[n:]
	return b
}

// New creates the engine. The domain must belong to the machine.
func New(m *machine.Machine, dom *rma.Domain, opt Options) *SRM {
	return &SRM{
		m:      m,
		dom:    dom,
		opt:    opt,
		groups: make(map[uint64][]*Group),
		trees:  make(map[treeKey]tree.Tree),
	}
}

// treeKey names a tree over the tasks of one node, which is a function of its
// kind, the task count and the root alone.
type treeKey struct {
	kind    tree.Kind
	n, root int
}

// intraTree returns the tree of the given kind over n local tasks rooted at
// root, built once: every node of every group of every operation of the run
// with that many tasks and that master shares it, read-only.
func (s *SRM) intraTree(kind tree.Kind, n, root int) tree.Tree {
	key := treeKey{kind, n, root}
	t, ok := s.trees[key]
	if !ok {
		t = tree.New(kind, n, root)
		s.trees[key] = t
	}
	return t
}

// Machine returns the underlying machine.
func (s *SRM) Machine() *machine.Machine { return s.m }

// World returns the group of all ranks.
func (s *SRM) World() *Group {
	if s.world == nil {
		all := make([]int, s.m.P())
		for i := range all {
			all[i] = i
		}
		s.world = s.Group(all)
	}
	return s.world
}

// span is one pipeline chunk of a message.
type span struct{ off, n int }

// chunks splits total bytes into pipeline chunks of at most chunk bytes.
// A zero-byte message still yields one empty chunk so control flow (flags,
// counters) runs once.
func chunks(total, chunk int) []span {
	if chunk < 1 {
		panic(fmt.Sprintf("core: chunk size %d", chunk))
	}
	if total == 0 {
		return []span{{0, 0}}
	}
	out := make([]span, 0, (total+chunk-1)/chunk)
	for off := 0; off < total; off += chunk {
		n := chunk
		if total-off < n {
			n = total - off
		}
		out = append(out, span{off, n})
	}
	return out
}

// flagSet is one flag per local task, each on its own cache line (§2.2).
type flagSet []shm.Flag

// build runs the state constructor of a new operation entry. While it runs,
// slot, flags and counter hand out memory the entry owns, the flags and
// counters from slabs of its own: what one operation carved shares no slab with
// another's, and goes back to the reserve when the operation is over, not the
// run. The entries that have settled return theirs first, so the constructor
// carves the slab an operation before it has just left.
func (s *SRM) build(e *opEntry, mk func() any) {
	s.settled(false)
	s.building = e
	e.state = mk()
	s.building = nil
}

// settled releases the flags and counters of the retired entries that nothing
// can reach any more. When its last member leaves, an operation's counters have
// taken their last arrival (every put is awaited by the member it lands at) and
// nobody waits on a flag, but a flag may have been set a moment ago, and the
// queue then holds the wake-up Set schedules one machine.WakeLatency later,
// which names the flag. Once the clock has passed that, it has fired. all is
// for the end of the run, when nothing queued will ever fire.
func (s *SRM) settled(all bool) {
	k, now, lat := 0, s.m.Env.Now(), s.m.WakeLatency()
	for ; k < len(s.retired) && (all || s.retired[k].retiredAt+lat < now); k++ { // the sum Set's wake-up was queued at
		s.retired[k].release()
		s.retired[k] = nil
	}
	s.retired = s.retired[:copy(s.retired, s.retired[k:])]
}

func (e *opEntry) release() {
	e.flagMem.Release()
	e.cntrMem.Release()
}

// Release hands the engine's records back to the process-level reserve, under
// the condition of sim.Env.Release and together with it: the executors, and the
// flags and counters of every operation — also of one that was aborted, or that
// a member never entered or left: the simulation is over, nothing lands or
// wakes any more. The engine must not be used again.
func (s *SRM) Release() {
	s.settled(true)
	for _, e := range s.kept {
		e.release()
	}
	for _, gs := range s.groups {
		for _, g := range gs {
			for _, e := range g.ops {
				if e != nil {
					e.release()
				}
			}
		}
	}
	s.kept, s.groups, s.world, s.free = nil, nil, nil, nil
	s.execMem.Release()
}

// flags returns n zero flags in node's shared memory, and counter a counter of
// the given initial value and wait class, for the operation entry under
// construction. Each is bound as it is handed out, so report ids are drawn in
// the order the state asks for them.
func (s *SRM) flags(node, n int) flagSet {
	fs := s.mustBuild().flagMem.Take(n)
	for i := range fs {
		fs[i].Init(s.m, node)
	}
	return fs
}

func (s *SRM) flag(node int) *shm.Flag { return &s.flags(node, 1)[0] }

func (s *SRM) counter(initial int, cl trace.Class) *rma.Counter {
	c := s.mustBuild().cntrMem.New()
	c.Init(s.m.Env, initial)
	return c.TraceClass(cl)
}

// mustBuild holds the carvers to state constructors, and returns the entry
// under construction: what it carves, it owns.
func (s *SRM) mustBuild() *opEntry {
	if s.building == nil {
		panic("core: protocol state carved outside Group.acquire")
	}
	return s.building
}
