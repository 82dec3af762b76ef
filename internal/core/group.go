package core

import (
	"fmt"
	"slices"
	"sort"

	"srmcoll/internal/machine"
	"srmcoll/internal/ranks"
	"srmcoll/internal/tree"
)

// layout describes the tasks participating in a collective: which global
// ranks take part and how they sit on the SMP nodes. The whole-world
// layout is the paper's setting; arbitrary subsets implement the §5
// extension ("embedding spanning trees for arbitrary MPI task groups").
type layout struct {
	members []int   // global ranks in group order (group rank = index)
	nodes   []int   // participating machine node ids, ascending
	local   [][]int // per participating node: its member ranks, group order
	spans   []int   // hierarchy group widths (machine.Config.TierSpans)

	// Where each member sits, as dense arrays so that entering an operation
	// (Group.acquire, once per rank per call) does no map operation.
	idx ranks.Index // global rank -> group rank
	at  []slot      // by group rank
}

// slot places one member: its node's index into nodes and its own index into
// local[nx].
type slot struct{ nx, l int32 }

// newLayout validates members and builds the node-grouped layout.
func newLayout(m *machine.Machine, members []int) layout {
	lay := layout{
		idx:     ranks.NewIndex("core", members, m.P()),
		members: slices.Clone(members),
		spans:   m.Cfg.TierSpans(),
		at:      make([]slot, len(members)),
	}
	// A counting pass sizes each node's member list, one backing array holds
	// them all, and count then maps a node to its index into nodes.
	count := make([]int, m.Cfg.Nodes)
	for _, r := range members {
		if count[m.NodeOf(r)]++; count[m.NodeOf(r)] == 1 {
			lay.nodes = append(lay.nodes, m.NodeOf(r))
		}
	}
	sort.Ints(lay.nodes)
	flat := make([]int, len(members))
	lay.local = make([][]int, len(lay.nodes))
	for x, nd := range lay.nodes {
		lay.local[x], flat = flat[:0:count[nd]], flat[count[nd]:]
		count[nd] = x
	}
	for _, r := range members {
		x := count[m.NodeOf(r)]
		lay.at[lay.idx.Of(r)] = slot{nx: int32(x), l: int32(len(lay.local[x]))}
		lay.local[x] = append(lay.local[x], r)
	}
	return lay
}

// index returns the group rank of a global rank, or -1 for a non-member.
func (lay *layout) index(rank int) int { return lay.idx.Of(rank) }

// contains reports whether the global rank participates.
func (lay *layout) contains(rank int) bool { return lay.index(rank) >= 0 }

// ni and li return a member's node index (into nodes) and its index within
// that node's member list (local[ni]).
func (lay *layout) ni(rank int) int { return int(lay.at[lay.index(rank)].nx) }
func (lay *layout) li(rank int) int { return int(lay.at[lay.index(rank)].l) }

// gEmbed is a communication tree embedded into the participating subset of
// the cluster: an inter-node tree over participating node indices plus a
// binomial intra-node tree over each node's members (generalizing Figure 1).
type gEmbed struct {
	inter   tree.Tree // over indices into lay.nodes
	intra   []tree.Tree
	masters []int // global master rank per node index
}

// embedKey names one embedding of a group: the embedding is a function of the
// inter-node tree kind, the root and the group's layout, and of nothing else.
type embedKey struct {
	inter tree.Kind
	root  int
}

// embed returns the group embedding rooted at the given member rank. It is
// built when first asked for and kept: Figure 1's embedding is a property of
// the task group, every collective on the group with these kinds and this root
// uses the same one, and nothing writes to a tree once it is built (the
// intra-node trees are the engine's, shared across groups too).
func (g *Group) embed(interKind tree.Kind, root int) gEmbed {
	key := embedKey{interKind, root}
	if e, ok := g.embeds[key]; ok {
		return e
	}
	lay := &g.lay
	if !lay.contains(root) {
		panic(fmt.Sprintf("core: root %d is not a group member", root))
	}
	rootNI := lay.ni(root)
	// The inter-node tree is hierarchy-aware: node ids plus the machine's
	// tier spans let multilevel trees group participants by switch.
	e := gEmbed{
		inter:   tree.NewHier(interKind, lay.nodes, rootNI, lay.spans),
		intra:   make([]tree.Tree, len(lay.nodes)),
		masters: make([]int, len(lay.nodes)),
	}
	for x := range lay.nodes {
		rootLocal := 0
		if x == rootNI {
			rootLocal = lay.li(root)
		}
		e.intra[x] = g.s.intraTree(len(lay.local[x]), rootLocal)
		e.masters[x] = lay.local[x][rootLocal]
	}
	if g.embeds == nil {
		g.embeds = make(map[embedKey]gEmbed)
	}
	g.embeds[key] = e
	return e
}

// Group is a task subset with its own collective-operation stream. Obtain
// one from SRM.Group; the same member list always yields the same Group,
// so SPMD callers share operation state. Every member must make the same
// sequence of calls on the group.
type Group struct {
	s   *SRM
	lay layout
	seq []int // by group rank: operations the member has entered

	embeds map[embedKey]gEmbed // the embeddings asked for so far (embed)

	// The operations in flight, oldest first: ops[i] has sequence number
	// base+i. Members enter operations in order and an operation is retired
	// by its last member, so entries come and go at the ends.
	ops  []*opEntry
	base int
}

// Group returns the (shared, cached) group for the given member ranks.
// Order matters: it defines group ranks and the default masters. A list seen
// before is found by its hash and an element-wise compare; only a new one is
// checked and laid out.
func (s *SRM) Group(members []int) *Group {
	h := ranks.Hash(members)
	for _, g := range s.groups[h] {
		if slices.Equal(g.lay.members, members) {
			return g
		}
	}
	g := &Group{s: s, lay: newLayout(s.m, members), seq: make([]int, len(members))}
	s.groups[h] = append(s.groups[h], g)
	return g
}

// Size returns the number of member tasks.
func (g *Group) Size() int { return len(g.lay.members) }

// acquire enters rank into the group's next operation: it returns the
// operation's shared state (built by mk for the first member to arrive) and
// binds the executor to the rank's place in the group. exec.finish retires
// the entry once every member has.
func (g *Group) acquire(x *exec, rank int, mk func() any) any {
	i := g.lay.index(rank)
	if i < 0 {
		panic(fmt.Sprintf("core: rank %d is not a member of the group", rank))
	}
	seq := g.seq[i]
	g.seq[i] = seq + 1
	if seq-g.base == len(g.ops) {
		e := &opEntry{}
		g.ops = append(g.ops, e)
		g.s.build(e, mk)
	}
	at := g.lay.at[i]
	x.g, x.seq, x.rank = g, seq, int32(rank)
	x.nx, x.l = int(at.nx), int(at.l)
	x.node = int32(g.lay.nodes[x.nx])
	x.ep = g.s.dom.Endpoint(rank)
	return g.ops[seq-g.base].state
}

// retire counts one member out of the operation; the last one removes the
// entry, returns its buffers to the machine's pool and leaves its flags and
// counters to be released (SRM.settled). They go back only when nothing can
// still write to them: every member ran the operation to completion (an
// aborted member may leave puts on the wire) and the wire cannot deliver a put
// a second time after its receiver has moved on (unreliable delivery under a
// plan that duplicates). Otherwise they stay where they are until the run is
// over: its pool is rewound then, and SRM.Release, if the run ended well, takes
// the flags and counters.
func (g *Group) retire(seq int, aborted bool) {
	e := g.ops[seq-g.base]
	e.done++
	e.aborted = e.aborted || aborted
	if e.done < len(g.lay.members) {
		return
	}
	// Drop the entry and any retired ones it uncovers at the front; the few
	// operations in flight slide down so the array never grows with the run.
	g.ops[seq-g.base] = nil
	k := 0
	for k < len(g.ops) && g.ops[k] == nil {
		k++
	}
	n := copy(g.ops, g.ops[k:])
	clear(g.ops[n:])
	g.ops, g.base = g.ops[:n], g.base+k
	s := g.s
	e.state = nil
	if e.aborted || s.m.Faults.Duplicates() && !s.dom.Reliable() {
		s.kept = append(s.kept, e)
		return
	}
	for _, b := range e.bufs {
		s.m.Buffers.Put(b)
	}
	e.bufs, e.retiredAt = nil, s.m.Env.Now()
	s.retired = append(s.retired, e)
}

// master returns the first member on participating node index x, the master
// of every operation that is not rooted.
func (g *Group) master(x int) int { return g.lay.local[x][0] }

// Sub returns the group over a subset of this group's members (groups are
// global by member list, so nesting just resolves through the registry).
func (g *Group) Sub(members []int) *Group {
	for _, r := range members {
		if !g.lay.contains(r) {
			panic(fmt.Sprintf("core: rank %d is not a member of the parent group", r))
		}
	}
	return g.s.Group(members)
}
