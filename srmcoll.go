// Package srmcoll is a library reproduction of "Fast Collective Operations
// Using Shared and Remote Memory Access Protocols on Clusters" (Tipparaju,
// Nieplocha, Panda; IPDPS 2003). It provides SRM collective operations —
// barrier, broadcast, reduce, allreduce built directly on shared memory
// within SMP nodes and one-sided remote memory access between them — plus
// the two point-to-point MPI baselines the paper compares against, all
// running on a deterministic discrete-event simulation of an SMP cluster.
//
// Programs are written SPMD-style: NewCluster describes the machine, Run
// executes a body on every rank, and the Comm handle inside the body
// offers the collective calls. Data movement is real (byte buffers are
// actually copied and reduced); time is simulated microseconds from a
// calibrated cost model, so results are reproducible to the bit.
//
//	cluster, _ := srmcoll.NewCluster(srmcoll.ColonySP(8, 16))
//	res, _ := cluster.Run(srmcoll.SRM, func(c *srmcoll.Comm) {
//	    buf := make([]byte, 1024)
//	    c.Bcast(buf, 0)
//	    c.Barrier()
//	})
//	fmt.Printf("completed in %.1f us\n", res.Time)
package srmcoll

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"srmcoll/internal/baseline"
	"srmcoll/internal/bufpool"
	"srmcoll/internal/check"
	"srmcoll/internal/core"
	"srmcoll/internal/dtype"
	"srmcoll/internal/fault"
	"srmcoll/internal/machine"
	"srmcoll/internal/ranks"
	"srmcoll/internal/rma"
	"srmcoll/internal/scale"
	"srmcoll/internal/sim"
	"srmcoll/internal/trace"
	"srmcoll/internal/tree"
	"srmcoll/internal/tune"
)

// Config describes the simulated cluster; see internal/machine for every
// timing parameter. Use ColonySP or ViaCluster for calibrated presets.
type Config = machine.Config

// ColonySP returns the paper's testbed: an IBM SP with the Colony switch
// and (typically 16-way) SMP nodes.
func ColonySP(nodes, tasksPerNode int) Config { return machine.ColonySP(nodes, tasksPerNode) }

// ViaCluster returns a commodity VIA-class cluster preset.
func ViaCluster(nodes, tasksPerNode int) Config { return machine.ViaCluster(nodes, tasksPerNode) }

// HierColonySP returns a hierarchical ColonySP-based preset: leafNodes
// nodes per leaf switch, then one slower tier per groupSizes entry (plus an
// implied top tier when the explicit tiers do not span all nodes). See
// machine.HierColonySP.
func HierColonySP(nodes, tasksPerNode, leafNodes int, groupSizes ...int) Config {
	return machine.HierColonySP(nodes, tasksPerNode, leafNodes, groupSizes...)
}

// ParseTopo parses a topology-shape spec "NxT[/leaf[/g1[/g2...]]]" (the
// same canonical form Config.TopoKey prints) into a HierColonySP config.
func ParseTopo(spec string) (Config, error) { return machine.ParseTopo(spec) }

// Datatype is the element type of reduction buffers.
type Datatype = dtype.Type

// Op is a reduction operator.
type Op = dtype.Op

// Element types and operators (MPI-style).
const (
	Float64 = dtype.Float64
	Float32 = dtype.Float32
	Int64   = dtype.Int64
	Int32   = dtype.Int32
	Uint8   = dtype.Uint8

	Sum  = dtype.Sum
	Prod = dtype.Prod
	Min  = dtype.Min
	Max  = dtype.Max
	Band = dtype.Band
	Bor  = dtype.Bor
	Bxor = dtype.Bxor
)

// Float64Bytes, Float64s, Int64Bytes and Int64s convert between typed
// slices and the byte buffers the collectives move.
var (
	Float64Bytes = dtype.Float64Bytes
	Float64s     = dtype.Float64s
	Int64Bytes   = dtype.Int64Bytes
	Int64s       = dtype.Int64s
)

// Impl selects a collective implementation.
type Impl int

const (
	// SRM is the paper's contribution: collectives on shared memory + RMA.
	SRM Impl = iota
	// IBMMPI is the vendor-MPI baseline over point-to-point message passing.
	IBMMPI
	// MPICHMPI is the MPICH baseline over point-to-point message passing.
	MPICHMPI
)

// String returns the implementation name used in reports.
func (im Impl) String() string {
	switch im {
	case SRM:
		return "srm"
	case IBMMPI:
		return "ibm-mpi"
	case MPICHMPI:
		return "mpich"
	}
	return fmt.Sprintf("Impl(%d)", int(im))
}

// Variant tunes SRM algorithm choices (ablations); the zero value is the
// paper's configuration.
type Variant struct {
	InterTree      tree.Kind    // inter-node tree shape (default binomial)
	Allreduce      AllreduceAlg // allreduce algorithm family (default auto)
	TreeSMPBcst    bool         // tree-based SMP broadcast instead of flat
	BarrierSMPBcst bool         // barrier-arbitrated shared buffers (§4's contrast)
	KeepInterrupts bool         // skip the §2.3 interrupt management
}

// TreeKind values for Variant.InterTree.
const (
	Binomial   = tree.Binomial
	Binary     = tree.Binary
	Fibonacci  = tree.Fibonacci
	Multilevel = tree.Multilevel // hierarchy-aware (Karonis-style) tree
	Bine       = tree.Bine       // negabinary-distance (De Sensi-style) tree
)

// AllreduceAlg selects the inter-node allreduce algorithm family for
// Variant.Allreduce. The SMP reduce/broadcast stages are shared; the
// family only changes the exchange between node masters.
type AllreduceAlg = core.Alg

// AllreduceAlg values for Variant.Allreduce.
const (
	// AllreduceAuto is the paper's size switch: recursive doubling up to
	// 16 KB, the Figure-5 four-stage chunk pipeline above.
	AllreduceAuto = core.AlgAuto
	// AllreduceRing is the bandwidth-optimal ring (reduce-scatter followed
	// by allgather around the node masters).
	AllreduceRing = core.AlgRing
	// AllreduceRHD is Rabenseifner's recursive halving/doubling with
	// pre/post fold-in for non-power-of-two node counts.
	AllreduceRHD = core.AlgRHD
	// AllreduceDualRoot is Träff's doubly-pipelined dual-root scheme:
	// pipeline chunks alternate between two trees with different roots.
	AllreduceDualRoot = core.AlgDualRoot
)

// ParseAllreduceAlg parses an AllreduceAlg spelling ("auto", "ring",
// "rhd", "dualroot"); the empty string is auto.
func ParseAllreduceAlg(s string) (AllreduceAlg, error) { return core.ParseAlg(s) }

// FaultPlan describes deterministic fault injection for a run: seeded
// per-channel put drop/duplicate/delay faults, interrupt storms, per-task
// stall windows, scheduled task crashes, the reliable-delivery mode that
// lets the SRM protocols survive them, and a virtual-time deadline that
// turns unbounded hangs into stall reports. The zero value injects nothing
// and leaves every run bit-identical to the default path. See
// internal/fault for field documentation.
type FaultPlan = fault.Plan

// ChannelFault, Storm, Stall and Crash are the FaultPlan building blocks.
type (
	ChannelFault = fault.ChannelFault
	Storm        = fault.Storm
	Stall        = fault.Stall
	Crash        = fault.Crash
)

// FaultSummary counts the faults actually injected during a run.
type FaultSummary = fault.Summary

// BlockedProc describes one process blocked with no scheduled wake-up:
// name, park time, and what it waits on.
type BlockedProc = sim.BlockedProc

// DeadlockError is returned by Run when the simulation can make no further
// progress while ranks remain blocked — for example when ranks disagree on
// the sequence of collective calls. It lists each blocked process with its
// wait context and a wait-graph snapshot.
type DeadlockError = sim.DeadlockError

// RunError reports a rank whose Run body failed: a buffer-validation
// panic, an injected crash, or any other panic inside the body. The
// simulation's other ranks keep running; the host program never sees the
// panic itself.
type RunError struct {
	Rank  int    // the rank that failed
	Op    string // best-effort operation context (e.g. "core.Gather", "crash")
	Cause error  // the recovered failure
}

func (e *RunError) Error() string {
	return fmt.Sprintf("srmcoll: rank %d failed in %s: %v", e.Rank, e.Op, e.Cause)
}

func (e *RunError) Unwrap() error { return e.Cause }

// StallError is returned by Run, RunT and ScaleAllreduce when a FaultPlan
// deadline expires with ranks still running: the watchdog report for runs
// that would otherwise hang (or retransmit) forever. Its fields are Time,
// Blocked (parked processes and what they wait on) and Faults (faults
// injected up to the stall).
type StallError = fault.StallError

// ErrDeadline is the sentinel matched by errors.Is for every *StallError:
// the run was cut off by the fault plan's deadline, not by a protocol
// error of its own.
var ErrDeadline = fault.ErrDeadline

// Trace is the deterministic span timeline of one traced run: virtual-time
// spans per rank (collective roots, SMP phases, waits, copies) plus async
// put-lifecycle segments. Use ChromeJSON for a Perfetto-loadable export,
// CriticalPath for per-operation attribution, and TimelineText for a plain
// rendering. See DESIGN.md §10 for the span taxonomy.
type Trace = trace.Trace

// Span is one timed segment of a Trace.
type Span = trace.Span

// SpanClass is the segment taxonomy of spans (shm copy, wire latency,
// interrupt/deferral, ack wait, pipeline stall, ...).
type SpanClass = trace.Class

// OpCrit is the per-collective critical-path report of Trace.CriticalPath.
type OpCrit = trace.OpCrit

// ReqOverlap is the per-request overlap report of Trace.OverlapReport: for
// each non-blocking collective, how much of its communication the issuing
// rank sat out in Wait (exposed) versus ran behind its own Compute
// (hidden).
type ReqOverlap = trace.ReqOverlap

// Cluster is a reusable description of a simulated machine. Each Run builds
// a fresh deterministic simulation of it.
type Cluster struct {
	cfg     Config
	variant Variant
	faults  FaultPlan
	killed  []error // by faults.Crashes: the sim.Crashed each crash kills its rank with, boxed once
	topo    string  // cfg.TopoKey(), for the tuning table
	ft      FTConfig
	tracing bool
	tuned   *TuneTable

	// spans is how many spans the last traced run recorded: the next one's
	// trace starts with room for as many. Runs of one cluster may be
	// concurrent, hence atomic.
	spans atomic.Int64
}

// NewCluster validates the configuration and returns a cluster handle.
// The cluster dispatches SRM collectives through the committed autotuner
// decision table by default (see SetTuning).
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, topo: cfg.TopoKey(), tuned: DefaultTuning()}, nil
}

// SetVariant overrides SRM algorithm choices for subsequent runs. A
// non-binomial InterTree is an explicit override: it wins over the tuned
// decision table for every operation.
func (cl *Cluster) SetVariant(v Variant) { cl.variant = v }

// TuneTable is an autotuned (op, size, topology) -> tree decision table;
// see internal/tune for the format and srmbench tune -json to generate one.
type TuneTable = tune.Table

// DefaultTuning returns the decision table committed with the library,
// generated by the autotuner over HierColonySP topology shapes.
func DefaultTuning() *TuneTable { return tune.Default() }

// ParseTuning decodes and validates a JSON decision table.
func ParseTuning(data []byte) (*TuneTable, error) { return tune.Parse(data) }

// SetTuning replaces the cluster's decision table for subsequent runs.
// Passing nil disables tuned dispatch entirely — the escape hatch back to
// the static Variant.InterTree selection. Topologies the table does not
// name always fall back to Variant.InterTree, so flat-topology runs are
// unaffected by tuning either way.
func (cl *Cluster) SetTuning(t *TuneTable) { cl.tuned = t }

// Tuning returns the cluster's current decision table (nil when disabled).
func (cl *Cluster) Tuning() *TuneTable { return cl.tuned }

// treeFor resolves the tuned per-operation tree selector for this cluster,
// or nil when the static Variant.InterTree applies: tuning is enabled, the
// variant does not override the tree, and the table covers this topology.
func (cl *Cluster) treeFor() func(op string, size int) tree.Kind {
	if cl.tuned == nil || cl.variant.InterTree != Binomial {
		return nil
	}
	e := cl.tuned.Topo(cl.topo)
	if e == nil {
		return nil
	}
	fallback := cl.variant.InterTree
	return func(op string, size int) tree.Kind {
		if k, ok := e.Lookup(op, size); ok {
			return k
		}
		return fallback
	}
}

// algFor resolves the tuned allreduce-algorithm selector for this cluster,
// or nil when the static Variant.Allreduce applies: tuning is enabled, the
// variant does not pick a family explicitly, and the table covers this
// topology.
func (cl *Cluster) algFor() func(size int) core.Alg {
	if cl.tuned == nil || cl.variant.Allreduce != AllreduceAuto {
		return nil
	}
	e := cl.tuned.Topo(cl.topo)
	if e == nil {
		return nil
	}
	return func(size int) core.Alg {
		if a, ok := e.LookupAlg("allreduce", size); ok {
			return a
		}
		return AllreduceAuto
	}
}

// SetFaultPlan installs a fault plan for subsequent runs. The zero-value
// plan restores the default fault-free path (bit-identical to not calling
// SetFaultPlan at all). The plan is validated at Run time; its crashes are
// the cluster's own copy from here on.
func (cl *Cluster) SetFaultPlan(p FaultPlan) {
	p.Crashes = slices.Clone(p.Crashes)
	cl.faults, cl.killed = p, make([]error, len(p.Crashes))
	for i, cr := range p.Crashes {
		cl.killed[i] = sim.Crashed{Reason: fmt.Sprintf("injected crash of rank %d at t=%.3f", cr.Rank, cr.At)}
	}
}

// FaultPlan returns the cluster's current fault plan.
func (cl *Cluster) FaultPlan() FaultPlan { return cl.faults }

// SetTracing enables span tracing for subsequent runs: Result.Trace holds
// the recorded timeline. Spans are stamped with virtual time, so tracing
// never perturbs simulated timing; it does cost host memory proportional
// to the number of recorded events. Off by default (Result.Trace nil, and
// the recording paths reduce to nil checks).
func (cl *Cluster) SetTracing(on bool) { cl.tracing = on }

// Tracing reports whether span tracing is enabled.
func (cl *Cluster) Tracing() bool { return cl.tracing }

// Config returns the cluster configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// Deprecated: ScaleEngine selects nothing; every rank of ScaleAllreduce is a
// plain task on the event loop.
type ScaleEngine = scale.Engine

// Deprecated: ScaleTasks selects nothing; see ScaleEngine.
const ScaleTasks = scale.Tasks

// ScaleOptions configures one ScaleAllreduce run.
type ScaleOptions struct {
	Bytes  int  // payload bytes per rank (int64 sum; rounded up to 8)
	Reps   int  // back-to-back repetitions, pipelined by the protocol
	Verify bool // check every rank's result against the exact sum

	// Deprecated: Engine selects nothing; see ScaleEngine.
	Engine ScaleEngine
}

// ScaleResult reports a ScaleAllreduce run: virtual time, per-rank finish
// times, machine counters, and the protocol memory footprint.
type ScaleResult = scale.Result

// ScaleAllreduce runs the massive-rank allreduce — an SMP-aware binomial
// tree with credit-based pipelining, a stepper of the collective engine's one
// executor (internal/core), set up by internal/scale — on this cluster's
// machine configuration. Unlike Run it spawns no goroutine: every rank is a
// plain task on the event loop, so 64k+ ranks complete in seconds of wall
// clock. A payload size whose buffers overflow int, or more than
// math.MaxInt32 repetitions, is an error. The cluster's fault plan applies as far as the scale
// core supports it (channel faults, storms, reliable delivery, the deadline);
// crash and stall scenarios need the full chaos runner in Run and are
// rejected here. Like Run, it validates the plan first, active or not.
//
// Once runs have allocated 8 MiB or more between them, the one that crosses
// the line ends with a garbage collection; see settle.
func (cl *Cluster) ScaleAllreduce(opt ScaleOptions) (*ScaleResult, error) {
	plan := cl.faults
	return settled(func() (*ScaleResult, error) {
		return scale.Run(scale.Config{
			Machine: cl.cfg,
			Bytes:   opt.Bytes,
			Reps:    opt.Reps,
			Faults:  &plan,
			Verify:  opt.Verify,
		})
	})
}

// Result reports one SPMD run.
type Result struct {
	Time    float64      // virtual microseconds until the last rank finished
	PerRank []float64    // per-rank completion times (0 for crashed ranks)
	Stats   trace.Stats  // data-movement and protocol counters
	Faults  FaultSummary // faults actually injected (zero without a plan)
	Events  uint64       // simulator queue items executed during the run
	Digest  uint64       // the fold of those items: one schedule, one digest (sim.Env.Digest)
	Trace   *Trace       // span timeline (nil unless Cluster.SetTracing(true))

	// Fault-tolerance outcome (empty unless Cluster.SetFaultTolerance).
	Failures []FailureRecord // declared rank failures, in declaration order
	Repairs  []RepairRecord  // completed Agree/Shrink rendezvous, in completion order
}

// Comm is a rank's handle inside a Run body: its identity plus the
// collective operations of the selected implementation. Sub carves out a
// communicator over a subset of ranks.
type Comm struct{ handle }

// handle is one rank's view of one communicator, the record Comm and TComm are
// two sets of methods over; the operations are written once, on it (tcomm.go).
type handle struct {
	*rankRec
	rec *commRec // the communicator this handle is a member's view of
}

// rs returns the run: its machine, communicator records and handle cache.
func (h handle) rs() *runState { return h.rec.rs }

// rank returns the rank's global rank.
func (h handle) rank() int { return h.rec.rs.indexOf(h.rankRec) }

// rankRec is what a run knows about one rank, shared by the rank's handles on
// every communicator: what its one actor can be in the middle of — the
// requests it issued, and one blocking collective or one rendezvous, since an
// actor is suspended in at most one thing. The records of the requests and the
// rendezvous are carved at the rank's first (runState): most runs make
// neither, and a rank's record is with it for the whole run. Who the rank is
// and which run it is in, a handle derives (its rank is the record's index in
// the run's slab, and the run is its communicator's): the record is 152 bytes.
type rankRec struct {
	call   frame      // the rank's actor (its task, and its process when the body has a stack), and its blocking collective in flight or what the last ended with (tcomm.go); first, so that what a waiting rank's call reads is on the record's first cache line
	world  Comm       // the rank's handle on the world communicator
	stream *reqStream // its non-blocking collectives (request.go); nil before the first
	sync   *syncFrame // its Agree or Shrink likewise (ft.go); nil before the first
}

// commRec is what a run knows about one communicator, held once and shared by
// the handles of all its members: a communicator is its member list, so every
// rank passing the same list to Sub arrives at the same record (runState.sub)
// and nothing per communicator is derived per rank — the list Members hands
// out, the implementation's group, the name.
type commRec struct {
	rs      *runState   // the run the communicator is of
	members []int       // global ranks in member order, as Members hands them out: cap == len, never written by the run
	coll    group       // the implementation's operations over the members, and the list and index the run reads
	name    string      // see key; the world's is set from the start
	from    []parentRec // the parents the list has been checked against, in first at first
	first   [1]parentRec
	next    *commRec // the next record in the bucket of runState.byHash

	// The communicator's stream of Agree/Shrink rendezvous (ft.go). Survivors
	// leave a rendezvous together, so at most one is in flight, and each has
	// read the outcome of one before it enters the next: the rounds take the
	// two records by parity.
	failed  int          // members declared failed so far
	told    *ftInterrupt // those members, as of the declaration that listed them (ftState.told)
	round   int          // rendezvous begun so far
	pending *ftGather    // the one in flight, nil between rounds
	gathers [2]ftGather
	entered []ftEntry // by member index: what the member entered pending with
}

// parentRec is a parent of a communicator and the handles its members reached
// the communicator by from it, by member index; nil before the first.
type parentRec struct {
	rec     *commRec
	handles []Comm
}

// list returns the member list the run itself reads: the implementation
// group's, which no caller holds.
func (rec *commRec) list() []int { return rec.coll.Members() }

// key names the communicator in repair records, event labels and panics:
// "world", or the member list as fmt.Sprint prints it, "[0 1 3]". It is
// formatted when first asked for; no lookup goes through it.
func (rec *commRec) key() string {
	if rec.name == "" {
		var buf [256]byte
		b := buf[:0]
		for _, r := range rec.list() {
			b = strconv.AppendInt(append(b, ' '), int64(r), 10)
		}
		b[0] = '['
		rec.name = rec.rs.str(append(b, ']'))
	}
	return rec.name
}

// newSRM builds the SRM engine the cluster's variant and tuning table
// describe.
func (cl *Cluster) newSRM(m *machine.Machine, dom *rma.Domain) *core.SRM {
	return core.New(m, dom, core.Options{
		InterTree:      cl.variant.InterTree,
		TreeSMPBcst:    cl.variant.TreeSMPBcst,
		BarrierSMPBcst: cl.variant.BarrierSMPBcst,
		KeepInterrupts: cl.variant.KeepInterrupts,
		TreeFor:        cl.treeFor(),
		AllreduceAlg:   cl.variant.Allreduce,
		AlgFor:         cl.algFor(),
	})
}

// sub returns the implementation's group over a subset of g's members.
func sub(g group, members []int) group {
	if srm, ok := g.(*core.Group); ok {
		return srm.Sub(members)
	}
	return g.(*baseline.Group).Sub(members)
}

// sub returns the record of the communicator over members, carved out of
// parent. The list is hashed and compared against the records in its bucket,
// so finding a communicator builds nothing; the implementation resolves its
// group, which is also what checks the list, once per parent it comes from.
func (rs *runState) sub(parent *commRec, members []int) *commRec {
	h := ranks.Hash(members)
	rec := rs.lookup(h, members)
	if rec != nil && rec.parent(parent) != nil {
		return rec
	}
	coll := sub(parent.coll, members)
	if rec == nil {
		rec = &carve(&rs.recs, 1, 8)[0]
		*rec = commRec{rs: rs, members: carve(&rs.ints, len(members), 256), coll: coll, next: rs.byHash[h]}
		rec.from = rec.first[:0]
		copy(rec.members, members)
		if rs.ft != nil {
			for _, r := range members {
				if rs.ft.failed[r] {
					rec.failed++
				}
			}
		}
		rs.comms = append(rs.comms, rec)
		if rs.byHash == nil {
			rs.byHash = make(map[uint64]*commRec)
		}
		rs.byHash[h] = rec
	}
	rec.from = append(rec.from, parentRec{rec: parent})
	return rec
}

// parent returns the entry of parent in the record's from, nil if the list
// has not been checked against it.
func (rec *commRec) parent(parent *commRec) *parentRec {
	for i := range rec.from {
		if rec.from[i].rec == parent {
			return &rec.from[i]
		}
	}
	return nil
}

// lookup finds the record of a member list in the bucket of its hash h.
func (rs *runState) lookup(h uint64, members []int) *commRec {
	rec := rs.byHash[h]
	for rec != nil && !slices.Equal(rec.list(), members) {
		rec = rec.next
	}
	return rec
}

// newWorld makes the record of the world communicator of p ranks. It is not
// in the table Sub looks lists up in: Sub over every rank is a communicator of
// its own.
func (rs *runState) newWorld(p int, coll group) *commRec {
	rec := &rs.world
	*rec = commRec{rs: rs, members: carve(&rs.ints, p, 256), coll: coll, name: "world"}
	for i := range rec.members {
		rec.members[i] = i
	}
	rs.comms = append(rs.comms0[:0], rec)
	return rec
}

// Sub returns a communicator over the given subset of global ranks — the
// paper's §5 extension to arbitrary MPI task groups. Member order defines
// the group; every member must pass the same list and make the same
// sequence of collective calls on it. Roots remain global ranks. Only
// member ranks may use the returned Comm. Repeated Sub calls with the same
// member list (from the same parent) return the same canonical Comm, so
// request ordering is per communicator, not per Sub call.
func (c *Comm) Sub(members []int) *Comm { return c.sub(members) }

// sub finds the rank's handle on the communicator over members, carved out of
// its own: a member's is in the array of the parent's entry in the record, made
// for all of them at the first; a rank outside the list finds its in the run's
// table.
func (h handle) sub(members []int) *Comm {
	rec := h.rs().sub(h.rec, members)
	i := rec.coll.Index(h.rank())
	if i < 0 {
		key := subKey{h, rec}
		if h.rs().outside[key] == nil {
			if h.rs().outside == nil {
				h.rs().outside = make(map[subKey]*Comm)
			}
			h.rs().outside[key] = &Comm{handle{h.rankRec, rec}}
		}
		return h.rs().outside[key]
	}
	from := rec.parent(h.rec)
	if from.handles == nil {
		from.handles = carve(&h.rs().handles, len(rec.members), 64)
	}
	from.handles[i].handle = handle{h.rankRec, rec}
	return &from.handles[i]
}

// Rank returns this task's global rank.
func (c *Comm) Rank() int { return c.rank() }

// Size returns the number of ranks in this communicator (the whole world,
// or the subgroup for a Comm obtained from Sub).
func (c *Comm) Size() int { return len(c.rec.members) }

// Node returns the SMP node hosting this rank.
func (c *Comm) Node() int { return c.rs().m.NodeOf(c.rank()) }

// LocalRank returns this rank's index within its node.
func (c *Comm) LocalRank() int { return c.rs().m.LocalRank(c.rank()) }

// Now returns the current virtual time in microseconds.
func (c *Comm) Now() float64 { return c.call.t.Now() }

// Compute advances this rank's virtual clock by us microseconds, modeling
// local computation between communication phases.
func (c *Comm) Compute(us float64) { c.call.sleep(us, sim.Func(func() {})) }

// Every blocking collective returns nil without fault tolerance (and when
// no member has failed); with fault tolerance enabled, a declared member
// failure surfaces as a *RankFailedError — at entry if the failure is
// already known, or by unwinding the protocol mid-operation when the
// declaration lands while this rank is blocked inside it. After an error
// the communicator needs Comm.Shrink before further collectives on it.

// collective is begin from a body with a stack, where the operation has ended
// by the time begin returns and the frame holds what it ended with.
func (c *Comm) collective(a collArgs) error {
	c.begin(a, func(error) {})
	return c.call.err
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error { return c.collective(collArgs{kind: collBarrier}) }

// Bcast broadcasts buf from root; on other ranks buf is overwritten.
func (c *Comm) Bcast(buf []byte, root int) error {
	return c.collective(newArgs(collBcast, buf, nil, 0, 0, root))
}

// Reduce combines send across ranks into recv at root (recv may be nil
// elsewhere).
func (c *Comm) Reduce(send, recv []byte, dt Datatype, op Op, root int) error {
	return c.collective(newArgs(collReduce, send, recv, dt, op, root))
}

// Allreduce combines send across ranks into every rank's recv.
func (c *Comm) Allreduce(send, recv []byte, dt Datatype, op Op) error {
	return c.collective(newArgs(collAllreduce, send, recv, dt, op, 0))
}

// Gather collects every rank's send block into recv at root (recv must
// hold Size()*len(send) bytes there; it is ignored elsewhere).
func (c *Comm) Gather(send, recv []byte, root int) error {
	return c.collective(newArgs(collGather, send, recv, 0, 0, root))
}

// Scatter distributes root's send (Size()*len(recv) bytes) so each rank
// receives its block in recv.
func (c *Comm) Scatter(send, recv []byte, root int) error {
	return c.collective(newArgs(collScatter, send, recv, 0, 0, root))
}

// Allgather concatenates every rank's send block into every rank's recv
// (Size()*len(send) bytes), ordered by rank.
func (c *Comm) Allgather(send, recv []byte) error {
	return c.collective(collArgs{kind: collAllgather, send: send, recv: recv})
}

// Alltoall exchanges per-rank blocks: send and recv hold Size() blocks of
// equal size; rank j receives this rank's block j at offset Rank().
func (c *Comm) Alltoall(send, recv []byte) error {
	return c.collective(collArgs{kind: collAlltoall, send: send, recv: recv})
}

// ReduceScatter combines every rank's send vector (Size()*len(recv)
// bytes) elementwise and delivers reduced block i to rank i in recv.
func (c *Comm) ReduceScatter(send, recv []byte, dt Datatype, op Op) error {
	return c.collective(newArgs(collReduceScatter, send, recv, dt, op, 0))
}

// Scan leaves in recv the reduction of the send buffers of all ranks with
// rank <= this one (inclusive prefix reduction).
func (c *Comm) Scan(send, recv []byte, dt Datatype, op Op) error {
	return c.collective(newArgs(collScan, send, recv, dt, op, 0))
}

// Exscan is the exclusive prefix reduction; rank 0's recv is zeroed.
func (c *Comm) Exscan(send, recv []byte, dt Datatype, op Op) error {
	return c.collective(newArgs(collExscan, send, recv, dt, op, 0))
}

// The Float64 convenience wrappers have no error return; under fault
// tolerance a member failure panics (recovered into a *RunError at the Run
// boundary) rather than returning silently wrong data. Fault-tolerant
// programs should use the error-returning collectives directly.

// AllgatherFloat64 is a convenience wrapper concatenating float64 vectors.
func (c *Comm) AllgatherFloat64(send []float64) []float64 {
	sb := dtype.Float64Bytes(send)
	rb := make([]byte, len(sb)*c.Size())
	if err := c.Allgather(sb, rb); err != nil {
		panic(err)
	}
	return dtype.Float64s(rb)
}

// ReduceFloat64 is a convenience wrapper summing float64 vectors.
func (c *Comm) ReduceFloat64(send []float64, op Op, root int) []float64 {
	sb := dtype.Float64Bytes(send)
	var rb []byte
	if c.rank() == root {
		rb = make([]byte, len(sb))
	}
	if err := c.Reduce(sb, rb, Float64, op, root); err != nil {
		panic(err)
	}
	if c.rank() != root {
		return nil
	}
	return dtype.Float64s(rb)
}

// AllreduceFloat64 is a convenience wrapper combining float64 vectors.
func (c *Comm) AllreduceFloat64(send []float64, op Op) []float64 {
	sb := dtype.Float64Bytes(send)
	rb := make([]byte, len(sb))
	if err := c.Allreduce(sb, rb, Float64, op); err != nil {
		panic(err)
	}
	return dtype.Float64s(rb)
}

// SharedCounter is a cluster-visible 64-bit word supporting atomic
// read-modify-write operations (LAPI_Rmw style, §2.3 of the paper). Obtain
// one inside a Run body with Comm.SharedCounter; the counter lives at the
// hosting rank and any rank may operate on it.
type SharedCounter struct {
	word *rma.Word
	dom  *rma.Domain
}

// SharedCounter returns the shared counter registered under the given id,
// creating it (hosted at rank `host`, initialized to init) on first use.
// All ranks using the same id share one counter; the creating call's host
// and init win.
func (c *Comm) SharedCounter(id string, host int, init int64) *SharedCounter {
	if w, ok := c.rs().counters[id]; ok {
		return w
	}
	if c.rs().counters == nil {
		c.rs().counters = make(map[string]*SharedCounter)
	}
	sc := &SharedCounter{word: c.rs().dom.Endpoint(host).NewWord(init), dom: c.rs().dom}
	c.rs().counters[id] = sc
	return sc
}

// FetchAdd atomically adds delta and returns the previous value.
func (sc *SharedCounter) FetchAdd(c *Comm, delta int64) int64 {
	return sc.dom.Endpoint(c.rank()).Rmw(c.call.p(), sc.word, rma.FetchAndAdd, delta, 0)
}

// Swap atomically stores v and returns the previous value.
func (sc *SharedCounter) Swap(c *Comm, v int64) int64 {
	return sc.dom.Endpoint(c.rank()).Rmw(c.call.p(), sc.word, rma.Swap, v, 0)
}

// CompareAndSwap stores v if the counter equals expect, returning the
// previous value (equal to expect exactly when the swap happened).
func (sc *SharedCounter) CompareAndSwap(c *Comm, expect, v int64) int64 {
	return sc.dom.Endpoint(c.rank()).Rmw(c.call.p(), sc.word, rma.CompareAndSwap, v, expect)
}

// Run executes body on every rank of a fresh simulation of the cluster
// using the chosen implementation, and reports timing and traffic.
//
// Error reporting is structured:
//
//   - a panic inside body (buffer validation, an injected crash) is
//     recovered and returned as a *RunError naming the rank — the host
//     program never panics;
//   - a simulation that can make no further progress returns a
//     *DeadlockError listing each blocked rank and what it waits on;
//   - a run stopped by a FaultPlan deadline returns a *StallError with the
//     same blocked-rank report.
//
// Run and RunT are reentrant: simulations of one Cluster or of several may run
// at the same time on different goroutines (a Cluster's setters are not to be
// called meanwhile), each with payload memory of its own, checked out of a
// process-level reserve for as long as it lasts (internal/bufpool).
//
// Once runs have allocated 8 MiB or more between them, the one that crosses
// the line ends with a garbage collection; see settle.
func (cl *Cluster) Run(impl Impl, body func(*Comm)) (*Result, error) {
	return cl.simulate(impl, func(sm *simulation) { sm.spawnProcs(body) })
}

// simulate is Run and RunT: one simulation of the cluster, its ranks started
// by spawn, then settled with what it allocated.
func (cl *Cluster) simulate(impl Impl, spawn func(*simulation)) (*Result, error) {
	return settled(func() (*Result, error) { return cl.run(impl, spawn) })
}

// settled runs one simulation, which leaves no frame of it on the stack when
// it returns, and settles what it allocated.
func settled[R any](run func() (R, error)) (R, error) {
	before, _ := heapCounters()
	res, err := run()
	after, cycles := heapCounters()
	settle(after-before, cycles)
	return res, err
}

// heapCounters reads two of the runtime's own counters, neither of which
// stops the world: the bytes the process has allocated on the heap and the
// cycles its collector has completed, both since it started.
func heapCounters() (allocated, cycles uint64) {
	s := [...]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// settleAfter is how much finished runs may have allocated between them before
// the collector is made to look at what they left. The runtime totals CPU by
// class only when a cycle completes, so a caller that reads those totals
// around a batch of runs, as the benchmark's traced run does, reads nothing
// unless the batch completes one: at 8 MiB the benchmark's fig_grid
// repetition (45 runs, 12.3 MiB) ends one of its runs with a cycle.
const settleAfter = 8 << 20

// unsettled is what runs have allocated since the collector last completed a
// cycle, as far as settle has been told.
var unsettled struct {
	sync.Mutex
	bytes  uint64
	cycles uint64 // the collector's completed cycles when bytes was last added to
}

// settle is the last thing Run, RunT and ScaleAllreduce do, once nothing of
// the simulation is reachable any more. allocated is what the process took
// from the heap while the run lasted and cycles the collector's count of
// completed cycles, read with it. Whatever a run allocates is dead when it
// returns — rank records, executors, flags and counters, messages, spans the
// caller may or may not keep — except the payload memory, which goes back to
// the reserve and which a warm run does not allocate at all. The collector only learns of the dead at
// its next cycle, and its heap goal is twice whatever was live when a cycle
// happened to mark, so left to its own pacing the garbage of a process that
// runs simulations back to back piles up to a goal set by where the last cycle
// fell (the benchmark's fig_grid read 590-750 MB from one invocation to the
// next). settle keeps the pile under settleAfter instead: it adds the run's
// allocation to what earlier runs left, and when the sum reaches settleAfter
// it collects and starts over. A cycle the collector completed on its own
// since the last run was weighed has dealt with what those runs left, so the
// sum restarts there too; this run still counts in full, since a cycle that
// fell inside it marked its records live.
//
// The sum is what serves small and large runs under one rule. A cycle marks
// the caller's whole live heap, which the library knows nothing about, so
// small runs must not each pay for one (collecting after each of the
// benchmark's 384 chaos runs cost 11 % of its wall time): at under 1 MB a run
// their sum takes a dozen runs to reach the line, and on a heap as small as theirs
// the collector's own cycles restart it long before. A run over 65,536 ranks,
// or a traced one with its hundred thousand spans, crosses the line alone and
// is collected before the next one starts. Concurrent runs each see the
// others' allocations in their own delta; that only collects sooner.
func settle(allocated, cycles uint64) {
	unsettled.Lock()
	if cycles != unsettled.cycles {
		unsettled.bytes, unsettled.cycles = 0, cycles
	}
	unsettled.bytes += allocated
	collect := unsettled.bytes >= settleAfter
	if collect {
		unsettled.bytes = 0
	}
	unsettled.Unlock()
	if collect {
		runtime.GC()
	}
}

// run is one simulation without the settling, apart so that no frame of it is
// on the stack when settle collects.
func (cl *Cluster) run(impl Impl, spawn func(*simulation)) (*Result, error) {
	sm, err := cl.prepare(impl)
	if err != nil {
		return nil, err
	}
	spawn(sm)
	return sm.outcome()
}

// simulation is one run between prepare and outcome: what Run and RunT set up
// alike, whichever form of body then spawns the ranks.
type simulation struct {
	cl   *Cluster
	m    *machine.Machine // m.Env is the run's clock, m.Faults its injector (nil unless the plan is active)
	dom  *rma.Domain
	impl interface{ Release() } // the implementation: SRM's engine, or a baseline's world group
	rs   *runState              // rs.ft is nil unless fault tolerance is on
	res  *Result

	finished []uint64 // RunT's ranks that have called done, a bit each
}

// prepare validates the plan and builds a fresh simulation of the cluster up to
// the point where the ranks are spawned: machine, fault injector, RMA domain,
// the implementation's world group, trace, run state, fault tolerance, the
// scheduled faults, the ranks' handles and the payload memory.
func (cl *Cluster) prepare(impl Impl) (*simulation, error) {
	if cl.ft.Enabled && impl != SRM {
		// A message-passing baseline cannot abandon an operation: the messages
		// of the one a declaration interrupted would match the retry's.
		return nil, fmt.Errorf("srmcoll: fault tolerance supports only the SRM implementation (got %s)", impl)
	}
	if err := cl.faults.Validate(cl.cfg.P(), cl.cfg.Nodes); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	m := machine.NewWithPool(env, cl.cfg, nil)
	sm := &simulation{cl: cl, m: m}
	if cl.faults.Active() {
		m.Faults = fault.New(cl.faults)
	}
	dom := rma.NewDomain(m)
	sm.dom = dom
	if cl.faults.Reliable {
		dom.EnableReliable(cl.faults.AckTimeout, cl.faults.BackoffCap)
	}
	var coll group
	switch impl {
	case SRM:
		srm := cl.newSRM(m, dom)
		sm.impl, coll = srm, srm.World()
	case IBMMPI, MPICHMPI:
		flavor := baseline.IBM
		if impl == MPICHMPI {
			flavor = baseline.MPICH
		}
		base := baseline.New(m, flavor)
		sm.impl, coll = base, base
	default:
		return nil, fmt.Errorf("srmcoll: unknown implementation %d", int(impl))
	}
	if cl.tracing {
		env.Trace = trace.New(env.Now)
		env.Trace.Reserve(int(cl.spans.Load()))
	}
	rs := newRunState(env, m.P())
	rs.m, rs.dom, rs.tr = m, dom, env.Trace
	world := rs.newWorld(m.P(), coll)
	sm.rs, sm.res = rs, &Result{PerRank: make([]float64, m.P()), Trace: env.Trace}
	if cl.ft.Enabled {
		dom.AllowDeaths()
		rs.newFTState(dom.MarkDead, m.P(), len(cl.faults.Crashes))
		env.ReserveFailures(len(cl.faults.Crashes))
		env.OnFailure = rs.ft.onFailure
	}
	// Schedule fault callbacks before spawning the ranks so a window opening
	// at t=0 is already in force when the first rank runs.
	if m.Faults != nil {
		sm.scheduleFaults()
	}
	for r := range rs.ranks {
		rk := &rs.ranks[r]
		rk.world.handle = handle{rk, world}
	}
	// Payload memory: a pool of the process-level reserve, the run's alone
	// until outcome hands it back. Nothing above draws from the pool, and a
	// prepare that failed has taken none.
	m.Buffers = bufpool.CheckOut()
	return sm, nil
}

// scheduleFaults wires the plan's crashes and stall windows to the ranks'
// tasks, as queue items carved once per run. They look the rank's task up
// when they fire; the ranks are spawned by then.
func (sm *simulation) scheduleFaults() {
	env, plan := sm.m.Env, &sm.cl.faults
	fs := make([]plannedFault, len(plan.Crashes)+len(plan.Stalls))
	for i, cr := range plan.Crashes {
		fs[i] = plannedFault{sm: sm, rank: cr.Rank, why: sm.cl.killed[i]}
		env.AtK(cr.At, &fs[i])
	}
	for i, st := range plan.Stalls {
		f := &fs[len(plan.Crashes)+i]
		*f = plannedFault{sm: sm, rank: st.Rank, factor: st.Factor}
		env.AtK(st.From, f)
		env.AtK(st.Until, (*stallEnd)(f))
	}
}

// plannedFault is a crash of the plan, or the opening of a stall window, as
// the queue item that brings it about; as a stallEnd it closes the window.
type plannedFault struct {
	sm     *simulation
	rank   int
	why    error   // a crash's cause, as the plan boxed it (Cluster.killed); nil for a stall window
	factor float64 // a stall window's stretch
}

type stallEnd plannedFault

func (f *plannedFault) Resume() {
	env, inj, t := f.sm.m.Env, f.sm.m.Faults, f.sm.rs.ranks[f.rank].call.t
	if f.why != nil {
		inj.CountCrash()
		env.KillWith(t, f.why)
		return
	}
	inj.CountStall()
	env.SetSlowdown(t, f.factor)
}

func (f *stallEnd) Resume() { f.sm.m.Env.SetSlowdown(f.sm.rs.ranks[f.rank].call.t, 1) }

// spawnProcs starts body on every rank as a process. The ranks share one
// start function, which finds its handle by the process's index.
func (sm *simulation) spawnProcs(body func(*Comm)) {
	start := func(p *sim.Proc) {
		c := &sm.rs.ranks[p.Num()].world
		body(c)
		c.checkDrained()
		sm.res.PerRank[c.rank()] = p.Now()
	}
	for r := range sm.rs.ranks {
		p := sm.m.Env.SpawnIndexed("rank", r, start)
		sm.rs.ranks[r].call.actor = actor{t: &p.Task}
		sm.nameTrack(&p.Task)
	}
}

// nameTrack gives a rank's task the trace track of its rank, named like the
// task.
func (sm *simulation) nameTrack(t *sim.Task) {
	if tr := sm.m.Env.Trace; tr != nil {
		t.SetTrack(t.Num())
		tr.NameTrackNum(t.Num(), t.Prefix(), t.Num())
	}
}

// outcome runs the simulation to its end, classifies it, holds it to its books,
// and hands its memory back to the reserve. For the payload that is safe
// however the run ended: the Env has retired every actor it is going to, and
// one left parked by a deadlock, a stall or a crash never executes again, so
// nothing can write to a buffer the next run is given. The records — tasks,
// processes, queue items, the calendar, put frames, executors, the flags and
// counters of its operations, a baseline's messages — go back only from a run
// that ended with a result, which is one that left no actor alive: an error
// report may name tasks, and a parked coroutine holds them. The caller's handles are cut off from the simulation first: a Comm,
// TComm or request kept past the run would otherwise drive a task that by then
// is another run's.
//
// The books are the put path's ledger (rma.Domain.Conserved), after every run,
// and the pool, every buffer back, after a run that ended with a result and no
// failures on a wire that cannot repeat a delivery unreliably: the runs whose
// operations give their buffers back as they retire (core.Group). A book that
// does not balance fails the run with a *check.LedgerError.
func (sm *simulation) outcome() (*Result, error) {
	res, err := sm.finish()
	lerr := sm.dom.Conserved()
	if n := sm.m.Buffers.Outstanding(); lerr == nil && n > 0 && res != nil && len(res.Failures) == 0 && !(sm.m.Faults.Duplicates() && !sm.dom.Reliable()) {
		lerr = &check.LedgerError{Clause: "pool", Counts: fmt.Sprintf("%d buffers not given back by the end of the run", n)}
	}
	if lerr != nil {
		res, err = nil, errors.Join(err, lerr)
	}
	// A use after the run is a crash, not a step of another run's task nor a
	// look into another run's group.
	for r := range sm.rs.ranks {
		rk := &sm.rs.ranks[r]
		rk.call.actor, rk.stream, rk.sync = actor{}, nil, nil
	}
	for _, rec := range sm.rs.comms {
		rec.coll = nil
	}
	sm.rs.m, sm.rs.dom = nil, nil
	bufpool.HandBack(sm.m.Buffers)
	sm.m.Buffers = nil // a use after hand-back is a crash, not a corrupted payload
	if err == nil {
		sm.impl.Release()
		sm.rs.release()
		sm.dom.Release()
		sm.m.Release()
	}
	return res, err
}

// finish runs the simulation to its end: the result, or the structured error
// Run documents.
func (sm *simulation) finish() (*Result, error) {
	env, inj, ft, res := sm.m.Env, sm.m.Faults, sm.rs.ft, sm.res
	var runErr error
	if deadline := sm.cl.faults.Deadline; deadline > 0 {
		runErr = env.RunUntil(deadline)
	} else {
		runErr = env.Run()
	}
	if env.Trace != nil {
		sm.cl.spans.Store(int64(len(env.Trace.Spans())))
	}
	if ce, ok := runErr.(*sim.CrashError); ok {
		if ft == nil || len(ft.unexpected) > 0 {
			// Without fault tolerance any crash ends the run; with it, only
			// failures beyond the plan's injected crashes (and the helper
			// deaths they cause) are real errors.
			first := ce.Failures[0]
			if ft != nil {
				first = ft.unexpected[0]
			}
			return nil, sm.rs.runError(first)
		}
		// Every failure was an expected injected crash: the run's outcome is
		// what the survivors did, decided below.
		runErr = nil
	}
	if runErr == nil && env.Live() > 0 {
		if env.Idle() {
			// Survivors are parked and nothing left in the queue can wake
			// them: a true deadlock (e.g. a rank stopped participating in
			// repair), not a deadline artifact.
			return nil, env.DeadlockReport()
		}
		return nil, fault.Stalled(env, inj)
	}
	if runErr != nil {
		return nil, runErr
	}
	for _, t := range res.PerRank {
		if t > res.Time {
			res.Time = t
		}
	}
	res.Stats = *sm.m.Stats
	res.Events, res.Digest = env.Events(), env.Digest()
	res.Trace.Freeze() // the caller keeps the result; it must not keep the simulation
	if inj != nil {
		res.Faults = inj.Summary()
	}
	if ft != nil {
		res.Failures = ft.failures
		res.Repairs = ft.repairs
	}
	return res, nil
}

// runError converts a recorded failure into a *RunError naming the rank whose
// task, or whose request helper, it was.
func (rs *runState) runError(f sim.ProcFailure) *RunError {
	rank, _ := rs.rankOf(f.Actor)
	re := &RunError{Rank: max(0, rank), Op: "run"}
	switch cause := f.Cause.(type) {
	case *check.SizeError:
		re.Op = cause.Op
		re.Cause = cause
	case *check.RequestError:
		re.Op = cause.Op
		re.Cause = cause
	case *check.ReentryError:
		re.Op = cause.Op
		re.Cause = cause
	case *check.DoneError:
		re.Op = "done"
		re.Cause = cause
	case sim.Crashed:
		re.Op = "crash"
		re.Cause = cause
	case error:
		re.Cause = cause
	default:
		re.Cause = fmt.Errorf("%v", cause)
	}
	return re
}
