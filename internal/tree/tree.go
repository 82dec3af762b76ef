// Package tree builds the communication trees used by collective
// operations — binomial (distance power-of-two), binary, generalized
// Fibonacci, flat, multilevel (Karonis-style, hierarchy-aware; see NewHier)
// and Bine (negabinary distances) — and embeds them into an SMP cluster the
// way the paper does (§2.1, Figure 1): an inter-node tree over one master
// task per node, plus an intra-node tree per SMP node. With equal tasks per
// node the embedding does not increase the tree height, because
// ceil(log2 P) >= ceil(log2 n) + ceil(log2 p).
package tree

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind selects a tree shape.
type Kind int

const (
	Binomial Kind = iota // distance power-of-two; best inter-node shape (§2.1)
	Binary
	Fibonacci  // generalized Fibonacci proportions (postal-model trees [5])
	Flat       // root is parent of everyone; the paper's SMP barrier shape
	Multilevel // grid-aware trees in the style of Karonis et al.; see NewHier
	Bine       // negabinary-distance trees in the style of De Sensi et al.
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Binomial:
		return "binomial"
	case Binary:
		return "binary"
	case Fibonacci:
		return "fibonacci"
	case Flat:
		return "flat"
	case Multilevel:
		return "multilevel"
	case Bine:
		return "bine"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind is the inverse of String. It returns an error for unknown names,
// so persisted decision tables fail loudly rather than silently falling back.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Binomial, Binary, Fibonacci, Flat, Multilevel, Bine} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("tree: unknown kind %q", s)
}

// Tree is a rooted spanning tree over vertices 0..N-1. A tree is read-only
// once its constructor has returned: nothing outside this package assigns to
// Parent or Children, so a Tree value (its slices with it) may be kept and
// shared by every operation that needs that shape, as internal/core does.
type Tree struct {
	N        int
	Root     int
	Parent   []int   // Parent[Root] == -1
	Children [][]int // ordered; for binomial, largest subtree first
}

// New builds a tree of the given kind over n vertices rooted at root.
// Trees are constructed in relative-rank space (vertex v stands for
// (root+v) mod n) and then relabeled, so any root works without extra
// copies, as the paper's broadcast requires.
func New(kind Kind, n, root int) Tree {
	if n < 1 {
		panic(fmt.Sprintf("tree: n = %d, want >= 1", n))
	}
	if root < 0 || root >= n {
		panic(fmt.Sprintf("tree: root %d out of range [0,%d)", root, n))
	}
	t := Tree{
		N:        n,
		Root:     root,
		Parent:   make([]int, n),
		Children: make([][]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	abs := func(rel int) int { return (rel + root) % n }
	link := func(parentRel, childRel int) {
		p, c := abs(parentRel), abs(childRel)
		t.Parent[c] = p
		t.Children[p] = append(t.Children[p], c)
	}
	switch kind {
	case Binomial:
		// Child relative ranks of v are v + 2^k for 2^k below v's lowest
		// set bit (the root sees every power of two). Largest offset first
		// so the biggest subtree starts earliest.
		for v := 0; v < n; v++ {
			limit := v & (-v) // lowest set bit; 0 means root (unbounded)
			for mask := highBit(n - 1); mask > 0; mask >>= 1 {
				if (limit == 0 || mask < limit) && v+mask < n && v&mask == 0 {
					link(v, v+mask)
				}
			}
		}
	case Binary:
		for v := 0; v < n; v++ {
			for _, c := range []int{2*v + 1, 2*v + 2} {
				if c < n {
					link(v, c)
				}
			}
		}
	case Fibonacci:
		var build func(base, size, parentRel int)
		build = func(base, size, parentRel int) {
			if size == 0 {
				return
			}
			if parentRel >= 0 {
				link(parentRel, base)
			}
			rest := size - 1
			// Golden-ratio split: the subtree started first is larger.
			left := int(math.Round(float64(rest) / math.Phi))
			build(base+1, left, base)
			build(base+1+left, rest-left, base)
		}
		build(0, n, -1)
	case Flat:
		for v := 1; v < n; v++ {
			link(0, v)
		}
	case Multilevel:
		// Without hierarchy information a multilevel tree degenerates to a
		// single group, i.e. the binomial shape. Use NewHier for grouping.
		return New(Binomial, n, root)
	case Bine:
		linkParents(bineParents(n), link)
	default:
		panic(fmt.Sprintf("tree: unknown kind %d", int(kind)))
	}
	return t
}

// BinomialRow returns what New(Binomial, n, root) holds for vertex v alone —
// Parent[v], and Children[v] in the same order (largest offset first) appended
// to buf — in O(log n) without building the tree: in relative-rank space a
// vertex's parent clears its lowest set bit, and its children add each power
// of two below that bit. It is how a rank of a point-to-point collective finds
// its partners per call (the mask loop of MPICH's and SimGrid's binomial
// algorithms). A buf of capacity Log2Ceil(n) keeps the call allocation-free;
// nil works. Panics on the same n and root as New, and on v outside [0, n).
func BinomialRow(n, root, v int, buf []int) (parent int, children []int) {
	if n < 1 {
		panic(fmt.Sprintf("tree: n = %d, want >= 1", n))
	}
	if root < 0 || root >= n {
		panic(fmt.Sprintf("tree: root %d out of range [0,%d)", root, n))
	}
	if v < 0 || v >= n {
		panic(fmt.Sprintf("tree: vertex %d out of range [0,%d)", v, n))
	}
	rel := (v - root + n) % n
	parent = -1
	mask := highBit(n - 1)
	if rel != 0 {
		low := rel & -rel
		parent = (rel - low + root) % n
		mask = min(mask, low>>1)
	}
	children = buf[:0]
	for ; mask > 0; mask >>= 1 {
		if rel+mask < n {
			children = append(children, (rel+mask+root)%n)
		}
	}
	return parent, children
}

// MaxBinomialChildren bounds len(children) of any BinomialRow: a stack array
// of this size is a buf that never grows.
const MaxBinomialChildren = 63

// bineParents returns the relative-rank parent array of a Bine tree
// (De Sensi et al.): a vertex's parent clears the lowest set digit of its
// negabinary expansion, so tree distances alternate direction
// (+1, -2, +4, -8, ...) and deep edges stay short on hierarchical layouts.
// For sizes that are not a power of two, ranks at or above the largest
// power of two t attach binomial-style to rank v-t — a deterministic
// adaptation that keeps depth within ceil(log2 n) + 1.
func bineParents(n int) []int {
	par := make([]int, n)
	par[0] = -1
	t := 1
	for t<<1 <= n {
		t <<= 1
	}
	for v := 1; v < n; v++ {
		if v >= t {
			par[v] = v - t
			continue
		}
		// Negabinary digit extraction: for v in [1, t) with t a power of
		// two, the map digits -> sum b_i*(-2)^i mod t is a bijection, and
		// the low digits of the plain integer expansion coincide with the
		// mod-t representation. Clear the lowest set digit.
		x, pow := v, 1
		for x&1 == 0 {
			x /= -2 // exact: x is even
			pow *= -2
		}
		par[v] = ((v-pow)%t + t) % t
	}
	return par
}

// linkParents links a relative-rank parent array through link, ordering each
// vertex's children largest subtree first (ties: smaller relative rank) to
// match the binomial pipelining convention.
func linkParents(par []int, link func(parentRel, childRel int)) {
	n := len(par)
	kids := make([][]int, n)
	root := -1
	for v, p := range par {
		if p < 0 {
			root = v
			continue
		}
		kids[p] = append(kids[p], v)
	}
	size := make([]int, n)
	var measure func(v int) int
	measure = func(v int) int {
		s := 1
		for _, c := range kids[v] {
			s += measure(c)
		}
		size[v] = s
		return s
	}
	measure(root)
	for v := 0; v < n; v++ {
		cs := append([]int(nil), kids[v]...)
		sort.Slice(cs, func(i, j int) bool {
			if size[cs[i]] != size[cs[j]] {
				return size[cs[i]] > size[cs[j]]
			}
			return cs[i] < cs[j]
		})
		for _, c := range cs {
			link(v, c)
		}
	}
}

// NewHier builds a topology-aware tree over n = len(ids) vertices rooted at
// the vertex index root. ids[i] is vertex i's physical node id; spans lists
// the hierarchy group widths in node-id units, innermost first (spans[0] =
// nodes per leaf switch, spans[1] = nodes per rack group, ...). Vertices
// whose ids fall in the same group at every level are "close".
//
// For Multilevel the construction follows Karonis et al.: at the outermost
// level one leader per group joins a binomial tree over the leaders (so each
// group pays exactly one edge crossing that level), then the construction
// recurses inside each group. The root leads its own group at every level.
// Any other kind ignores the topology and defers to New.
func NewHier(kind Kind, ids []int, root int, spans []int) Tree {
	n := len(ids)
	if n < 1 {
		panic(fmt.Sprintf("tree: NewHier over %d vertices", n))
	}
	if root < 0 || root >= n {
		panic(fmt.Sprintf("tree: root %d out of range [0,%d)", root, n))
	}
	if kind != Multilevel || len(spans) == 0 || n == 1 {
		return New(kind, n, root)
	}
	t := Tree{N: n, Root: root, Parent: make([]int, n), Children: make([][]int, n)}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	t.buildLevel(all, root, ids, spans, len(spans)-1)
	return t
}

// buildLevel wires one hierarchy level: group idxs by spans[level], binomial
// over the group leaders, then recurse inside each group. Below level 0 the
// remaining vertices share a leaf switch and get a plain binomial tree.
func (t *Tree) buildLevel(idxs []int, root int, ids, spans []int, level int) {
	if level < 0 || len(idxs) == 1 {
		t.binomialOver(rootFirst(idxs, root))
		return
	}
	span := spans[level]
	if span < 1 {
		span = 1
	}
	groups := make(map[int][]int)
	var keys []int
	for _, ix := range idxs {
		g := ids[ix] / span
		if _, ok := groups[g]; !ok {
			keys = append(keys, g)
		}
		groups[g] = append(groups[g], ix)
	}
	sort.Ints(keys)
	rootG := ids[root] / span
	leaders := []int{root}
	for _, g := range keys {
		if g != rootG {
			leaders = append(leaders, groups[g][0])
		}
	}
	if len(leaders) > 1 {
		t.binomialOver(leaders)
	}
	t.buildLevel(groups[rootG], root, ids, spans, level-1)
	for _, g := range keys {
		if g != rootG {
			t.buildLevel(groups[g], groups[g][0], ids, spans, level-1)
		}
	}
}

// binomialOver links list in a binomial pattern over list positions, with
// list[0] as the subtree root (which is left unlinked itself).
func (t *Tree) binomialOver(list []int) {
	n := len(list)
	for v := 0; v < n; v++ {
		limit := v & (-v)
		for mask := highBit(n - 1); mask > 0; mask >>= 1 {
			if (limit == 0 || mask < limit) && v+mask < n && v&mask == 0 {
				p, c := list[v], list[v+mask]
				t.Parent[c] = p
				t.Children[p] = append(t.Children[p], c)
			}
		}
	}
}

// rootFirst returns root followed by the remaining entries in their given
// (ascending) order.
func rootFirst(idxs []int, root int) []int {
	out := make([]int, 0, len(idxs))
	out = append(out, root)
	for _, ix := range idxs {
		if ix != root {
			out = append(out, ix)
		}
	}
	return out
}

func highBit(x int) int {
	h := 1
	for h<<1 <= x {
		h <<= 1
	}
	if x == 0 {
		return 0
	}
	return h
}

// Depth returns the number of edges from the root to v.
func (t Tree) Depth(v int) int {
	d := 0
	for t.Parent[v] != -1 {
		v = t.Parent[v]
		d++
	}
	return d
}

// Height returns the maximum depth over all vertices.
func (t Tree) Height() int {
	h := 0
	for v := 0; v < t.N; v++ {
		if d := t.Depth(v); d > h {
			h = d
		}
	}
	return h
}

// Leaves returns the vertices with no children.
func (t Tree) Leaves() []int {
	var ls []int
	for v := 0; v < t.N; v++ {
		if len(t.Children[v]) == 0 {
			ls = append(ls, v)
		}
	}
	return ls
}

// Validate checks the structural invariants: a single root with Parent -1,
// consistent Parent/Children, and every vertex reachable from the root.
func (t Tree) Validate() error {
	if t.Root < 0 || t.Root >= t.N {
		return fmt.Errorf("tree: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("tree: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	seen := make([]bool, t.N)
	count := 0
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			return fmt.Errorf("tree: vertex %d reached twice", v)
		}
		seen[v] = true
		count++
		for _, c := range t.Children[v] {
			if t.Parent[c] != v {
				return fmt.Errorf("tree: child %d of %d has Parent %d", c, v, t.Parent[c])
			}
			stack = append(stack, c)
		}
	}
	if count != t.N {
		return fmt.Errorf("tree: %d of %d vertices reachable from root", count, t.N)
	}
	return nil
}

// Rounds returns the completion round of the tree under the one-port model
// the paper's equation (1) uses: a vertex sends to its children one per
// round in stored order, and a child can start forwarding the round after
// it receives. For a binomial tree this is ceil(log2 N) — the paper's
// h(P) = log(P). (The flat SMP broadcast is not one-port, so Rounds is not
// the right cost metric for Flat trees; see internal/core.)
func (t Tree) Rounds() int {
	var walk func(v, recvAt int) int
	walk = func(v, recvAt int) int {
		last := recvAt
		for i, c := range t.Children[v] {
			if r := walk(c, recvAt+i+1); r > last {
				last = r
			}
		}
		return last
	}
	return walk(t.Root, 0)
}

// Log2Ceil returns ceil(log2(n)) for n >= 1; the binomial round count (eq. 1).
// Degenerate sizes n <= 0 (an empty hierarchy level, a 1-node "inter" tree's
// peer count) return 0 rather than looping or going negative.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	h := 0
	for 1<<h < n {
		h++
	}
	return h
}

// Log2Floor returns floor(log2(n)) for n >= 1; the binomial tree depth.
// As with Log2Ceil, n <= 0 clamps to 0.
func Log2Floor(n int) int {
	if n <= 1 {
		return 0
	}
	h := 0
	for 1<<(h+1) <= n {
		h++
	}
	return h
}

// Embedding is a communication tree embedded into an SMP cluster: an
// inter-node tree over the per-node master tasks and an intra-node tree on
// each node (Figure 1).
type Embedding struct {
	Nodes        int
	TasksPerNode int
	Root         int    // global root rank
	Masters      []int  // Masters[node] = global rank of the node's master
	Inter        Tree   // over node ids, rooted at the root's node
	Intra        []Tree // per node, over local ranks, rooted at the master
}

// Embed builds the embedding for a cluster of nodes x tasksPerNode tasks,
// rooted at global rank root. The master of the root's node is the root
// itself; elsewhere it is local rank 0. interKind shapes the tree between
// masters, intraKind the tree inside each node.
func Embed(nodes, tasksPerNode int, interKind, intraKind Kind, root int) Embedding {
	if nodes < 1 || tasksPerNode < 1 {
		panic("tree: embedding needs nodes >= 1 and tasksPerNode >= 1")
	}
	if root < 0 || root >= nodes*tasksPerNode {
		panic(fmt.Sprintf("tree: root %d out of range", root))
	}
	rootNode := root / tasksPerNode
	e := Embedding{
		Nodes:        nodes,
		TasksPerNode: tasksPerNode,
		Root:         root,
		Masters:      make([]int, nodes),
		Inter:        New(interKind, nodes, rootNode),
		Intra:        make([]Tree, nodes),
	}
	for nd := 0; nd < nodes; nd++ {
		local := 0
		if nd == rootNode {
			local = root % tasksPerNode
		}
		e.Masters[nd] = nd*tasksPerNode + local
		e.Intra[nd] = New(intraKind, tasksPerNode, local)
	}
	return e
}

// MasterOf returns the master rank of the node hosting the given rank.
func (e Embedding) MasterOf(rank int) int { return e.Masters[rank/e.TasksPerNode] }

// IsMaster reports whether the rank is its node's master.
func (e Embedding) IsMaster(rank int) bool { return e.MasterOf(rank) == rank }

// Height returns the embedded tree's total depth: inter-node depth plus
// the maximum intra-node depth.
func (e Embedding) Height() int {
	h := 0
	for _, t := range e.Intra {
		if th := t.Height(); th > h {
			h = th
		}
	}
	return e.Inter.Height() + h
}

// Rounds returns the one-port completion round of the embedding: the
// inter-node rounds plus the worst intra-node rounds — the quantity the
// paper's §2.1 observation bounds by log(n) + log(p).
func (e Embedding) Rounds() int {
	r := 0
	for _, t := range e.Intra {
		if tr := t.Rounds(); tr > r {
			r = tr
		}
	}
	return e.Inter.Rounds() + r
}

// Render returns a one-vertex-per-line indented view of the tree, labeling
// each vertex with label(v). Used by cmd/srmtree and examples.
func Render(t Tree, label func(int) string) string {
	var b strings.Builder
	var walk func(v, depth int)
	walk = func(v, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(label(v))
		b.WriteByte('\n')
		for _, c := range t.Children[v] {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}
