package tree

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	tr := New(Binomial, 8, 0)
	// Root 0 has children 4,2,1 (largest subtree first).
	if fmt.Sprint(tr.Children[0]) != "[4 2 1]" {
		t.Errorf("children of 0 = %v, want [4 2 1]", tr.Children[0])
	}
	if fmt.Sprint(tr.Children[4]) != "[6 5]" {
		t.Errorf("children of 4 = %v, want [6 5]", tr.Children[4])
	}
	if fmt.Sprint(tr.Children[2]) != "[3]" {
		t.Errorf("children of 2 = %v, want [3]", tr.Children[2])
	}
	if len(tr.Children[7]) != 0 || tr.Parent[7] != 6 {
		t.Errorf("vertex 7: parent=%d children=%v", tr.Parent[7], tr.Children[7])
	}
}

func TestBinomialHeightIsLog2Floor(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 64, 100, 128, 255, 256} {
		tr := New(Binomial, n, 0)
		if got, want := tr.Height(), bits.Len(uint(n))-1; got != want {
			t.Errorf("binomial height(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBinomialRoundsIsLog2Ceil(t *testing.T) {
	// Equation (1): h(P) = ceil(log2 P) one-port rounds.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 64, 100, 128, 255, 256} {
		tr := New(Binomial, n, 0)
		if got, want := tr.Rounds(), Log2Ceil(n); got != want {
			t.Errorf("binomial rounds(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFlatRounds(t *testing.T) {
	if got := New(Flat, 5, 0).Rounds(); got != 4 {
		t.Errorf("flat one-port rounds(5) = %d, want 4", got)
	}
}

func TestBinaryShape(t *testing.T) {
	tr := New(Binary, 7, 0)
	if fmt.Sprint(tr.Children[0]) != "[1 2]" || fmt.Sprint(tr.Children[1]) != "[3 4]" {
		t.Errorf("binary children: %v %v", tr.Children[0], tr.Children[1])
	}
	if tr.Height() != 2 {
		t.Errorf("binary height(7) = %d, want 2", tr.Height())
	}
}

func TestFlatShape(t *testing.T) {
	tr := New(Flat, 16, 3)
	if tr.Height() != 1 {
		t.Errorf("flat height = %d, want 1", tr.Height())
	}
	if len(tr.Children[3]) != 15 {
		t.Errorf("flat root degree = %d, want 15", len(tr.Children[3]))
	}
}

func TestFlatSingleton(t *testing.T) {
	tr := New(Flat, 1, 0)
	if tr.Height() != 0 || tr.Validate() != nil {
		t.Errorf("singleton flat tree invalid: %+v", tr)
	}
}

func TestFibonacciValid(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 20, 33, 100} {
		tr := New(Fibonacci, n, 0)
		if err := tr.Validate(); err != nil {
			t.Errorf("fibonacci(%d): %v", n, err)
		}
	}
}

func TestFibonacciDeeperThanBinomial(t *testing.T) {
	// Fibonacci trees trade width for depth; for moderate n the height is
	// at least the binomial height.
	for _, n := range []int{16, 64, 128} {
		fib, bin := New(Fibonacci, n, 0), New(Binomial, n, 0)
		if fib.Height() < bin.Height() {
			t.Errorf("n=%d: fib height %d < binomial height %d", n, fib.Height(), bin.Height())
		}
	}
}

func TestRootRelabeling(t *testing.T) {
	tr := New(Binomial, 8, 5)
	if tr.Root != 5 || tr.Parent[5] != -1 {
		t.Fatalf("root not relabeled: %+v", tr)
	}
	// Relative child 4 of relative root 0 maps to (5+4)%8 = 1.
	if fmt.Sprint(tr.Children[5]) != "[1 7 6]" {
		t.Errorf("children of root 5 = %v, want [1 7 6]", tr.Children[5])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := New(Binomial, 8, 0)
	tr.Parent[3] = 5 // inconsistent with Children[2]
	if err := tr.Validate(); err == nil {
		t.Error("Validate missed parent/child inconsistency")
	}
	tr2 := New(Binomial, 8, 0)
	tr2.Children[0] = tr2.Children[0][:1] // drop subtrees
	if err := tr2.Validate(); err == nil {
		t.Error("Validate missed unreachable vertices")
	}
}

func TestLeaves(t *testing.T) {
	tr := New(Binomial, 8, 0)
	// Odd relative ranks are leaves in a power-of-two binomial tree.
	var leaves []int
	for v, kids := range tr.Children {
		if len(kids) == 0 {
			leaves = append(leaves, v)
		}
	}
	if fmt.Sprint(leaves) != "[1 3 5 7]" {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 256: 8, 257: 9}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Binomial: "binomial", Binary: "binary",
		Fibonacci: "fibonacci", Flat: "flat", Multilevel: "multilevel",
		Bine: "bine", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Binomial, Binary, Fibonacci, Flat, Multilevel, Bine} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("quadtree"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestLog2DegenerateClamps(t *testing.T) {
	// Before the guard, n <= 0 looped forever; it must clamp to 0.
	for _, n := range []int{0, -1, -64} {
		if got := Log2Ceil(n); got != 0 {
			t.Errorf("Log2Ceil(%d) = %d, want 0", n, got)
		}
	}
}

func TestBineSmall(t *testing.T) {
	// n = 8 negabinary parents: clearing the lowest set digit of the
	// (-2)-ary expansion gives parent[1 2 3 4 5 6 7] = [0 4 2 0 4 0 6].
	tr := New(Bine, 8, 0)
	wantPar := []int{-1, 0, 4, 2, 0, 4, 0, 6}
	for v, want := range wantPar {
		if tr.Parent[v] != want {
			t.Errorf("bine parent[%d] = %d, want %d", v, tr.Parent[v], want)
		}
	}
	// Children ordered largest subtree first: 0 -> [4 6 1].
	if fmt.Sprint(tr.Children[0]) != "[4 6 1]" {
		t.Errorf("bine children of 0 = %v, want [4 6 1]", tr.Children[0])
	}
}

func TestBineValidAndShallow(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 63, 64, 100, 127, 128, 200, 256} {
		tr := New(Bine, n, 0)
		if err := tr.Validate(); err != nil {
			t.Errorf("bine(%d): %v", n, err)
		}
		if h, lim := tr.Height(), Log2Ceil(n)+1; h > lim {
			t.Errorf("bine height(%d) = %d, want <= %d", n, h, lim)
		}
	}
}

func TestMultilevelWithoutSpansIsBinomial(t *testing.T) {
	a, b := New(Multilevel, 12, 3), New(Binomial, 12, 3)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("Multilevel without hierarchy info must fall back to binomial")
	}
}

// crossEdges counts, per group of ids at the given span, the tree edges
// whose endpoints lie in different groups, charged to the child's group.
func crossEdges(tr Tree, ids []int, span int) map[int]int {
	cross := make(map[int]int)
	for v := 0; v < tr.N; v++ {
		p := tr.Parent[v]
		if p < 0 {
			continue
		}
		if ids[v]/span != ids[p]/span {
			cross[ids[v]/span]++
		}
	}
	return cross
}

func TestNewHierMultilevelOneCrossEdgePerGroup(t *testing.T) {
	// The Karonis property: each non-root group pays exactly one edge
	// crossing each hierarchy level, so uplink traffic cannot be amplified
	// by the tree shape. Exercise non-power-of-two groups and a non-zero
	// root, at one and two levels.
	cases := []struct {
		n     int
		spans []int
		root  int
	}{
		{6, []int{2}, 0}, {12, []int{3}, 5}, {12, []int{3, 6}, 0},
		{24, []int{3, 6}, 17}, {7, []int{3}, 2}, {16, []int{4, 8}, 9},
	}
	for _, c := range cases {
		ids := make([]int, c.n)
		for i := range ids {
			ids[i] = i
		}
		tr := NewHier(Multilevel, ids, c.root, c.spans)
		if err := tr.Validate(); err != nil {
			t.Errorf("multilevel n=%d spans=%v: %v", c.n, c.spans, err)
			continue
		}
		for _, span := range c.spans {
			rootG := ids[c.root] / span
			for g, k := range crossEdges(tr, ids, span) {
				if g == rootG {
					t.Errorf("n=%d spans=%v span=%d: root group %d has %d inbound cross edges, want 0",
						c.n, c.spans, span, g, k)
				} else if k != 1 {
					t.Errorf("n=%d spans=%v span=%d: group %d has %d inbound cross edges, want 1",
						c.n, c.spans, span, g, k)
				}
			}
		}
	}
}

func TestNewHierNonMultilevelDefersToNew(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5}
	a, b := NewHier(Binomial, ids, 1, []int{2}), New(Binomial, 6, 1)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("NewHier with a non-multilevel kind must match New")
	}
}

func TestNewHierSingleton(t *testing.T) {
	tr := NewHier(Multilevel, []int{7}, 0, []int{2, 4})
	if tr.N != 1 || tr.Validate() != nil {
		t.Errorf("singleton multilevel tree invalid: %+v", tr)
	}
}

func TestNewPanics(t *testing.T) {
	for _, c := range []struct{ n, root int }{{0, 0}, {4, -1}, {4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(Binomial,%d,%d) did not panic", c.n, c.root)
				}
			}()
			New(Binomial, c.n, c.root)
		}()
	}
}

// Property: every kind yields a valid spanning tree for any n and root.
func TestPropAllKindsValid(t *testing.T) {
	f := func(nRaw, rootRaw uint16, kRaw uint8) bool {
		n := int(nRaw)%300 + 1
		root := int(rootRaw) % n
		k := Kind(kRaw % 6)
		tr := New(k, n, root)
		return tr.Validate() == nil && tr.N == n && tr.Root == root
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: relabeling by root is a rotation — depths are preserved
// relative to the binomial tree rooted at 0.
func TestPropRootRotationPreservesDepths(t *testing.T) {
	f := func(nRaw, rootRaw uint8) bool {
		n := int(nRaw)%64 + 1
		root := int(rootRaw) % n
		t0, tr := New(Binomial, n, 0), New(Binomial, n, root)
		for v := 0; v < n; v++ {
			if t0.Depth(v) != tr.Depth((v+root)%n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedFigure1(t *testing.T) {
	// The paper's Figure 1: 128-processor binomial tree in an 8-node
	// 16-way cluster.
	e := Embed(8, 16, Binomial, Binomial, 0)
	if err := e.Inter.Validate(); err != nil {
		t.Fatal(err)
	}
	for nd, tr := range e.Intra {
		if err := tr.Validate(); err != nil {
			t.Fatalf("intra tree of node %d: %v", nd, err)
		}
	}
	// Embedding does not increase the round count:
	// log2(128) = log2(8) + log2(16).
	if got, want := e.Rounds(), Log2Ceil(128); got != want {
		t.Errorf("embedded rounds = %d, want %d", got, want)
	}
	if e.Masters[0] != 0 || e.Masters[3] != 48 {
		t.Errorf("masters = %v", e.Masters)
	}
}

func TestEmbedNonMasterRoot(t *testing.T) {
	e := Embed(4, 4, Binomial, Binomial, 6) // root on node 1, local rank 2
	if e.Masters[6/e.TasksPerNode] != 6 {
		t.Error("root must be the master of its node")
	}
	if e.Masters[0] != 0 || e.Masters[2] != 8 {
		t.Errorf("masters = %v", e.Masters)
	}
	if e.Inter.Root != 1 {
		t.Errorf("inter root node = %d, want 1", e.Inter.Root)
	}
	if e.Intra[1].Root != 2 {
		t.Errorf("intra root on root node = %d, want local 2", e.Intra[1].Root)
	}
	if m := e.Masters[1/e.TasksPerNode]; m != 0 {
		t.Errorf("master of rank 1 = %d, want 0", m)
	}
}

// Property: the §2.1 observation. The embedded binomial tree always costs
// ceil(log2 n) + ceil(log2 p) one-port rounds, and for power-of-two shapes
// this equals the unembedded optimum ceil(log2 P).
func TestPropEmbeddingRoundsOptimal(t *testing.T) {
	f := func(nRaw, pRaw, rootRaw uint8) bool {
		n := int(nRaw)%16 + 1
		p := int(pRaw)%16 + 1
		root := int(rootRaw) % (n * p)
		e := Embed(n, p, Binomial, Binomial, root)
		if e.Rounds() != Log2Ceil(n)+Log2Ceil(p) {
			return false
		}
		// Power-of-two shapes achieve the unembedded optimum exactly.
		if n&(n-1) == 0 && p&(p-1) == 0 && e.Rounds() != Log2Ceil(n*p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The paper's 15-of-16 case: leaving one processor per node for daemons
// still gives an optimal embedding.
func TestEmbedFifteenOfSixteen(t *testing.T) {
	e := Embed(8, 15, Binomial, Binomial, 0)
	// ceil(log2 120) = 7 = ceil(log2 8) + ceil(log2 15) = 3 + 4.
	if got := e.Rounds(); got != Log2Ceil(8*15) {
		t.Errorf("rounds with 15 tasks/node = %d, want %d", got, Log2Ceil(120))
	}
}

func TestEmbedPanics(t *testing.T) {
	for _, c := range []struct{ n, p, root int }{{0, 4, 0}, {4, 0, 0}, {2, 2, 4}, {2, 2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Embed(%d,%d,root=%d) did not panic", c.n, c.p, c.root)
				}
			}()
			Embed(c.n, c.p, Binomial, Binomial, c.root)
		}()
	}
}

// FuzzNew checks every tree construction stays a valid spanning tree for
// arbitrary shapes.
func FuzzNew(f *testing.F) {
	f.Add(8, 0, uint8(0))
	f.Add(100, 37, uint8(2))
	f.Fuzz(func(t *testing.T, n, root int, kindRaw uint8) {
		n = n%512 + 1
		if n < 1 {
			n = 1
		}
		root = ((root % n) + n) % n
		tr := New(Kind(kindRaw%6), n, root)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.Rounds() < tr.Height() {
			t.Fatalf("rounds %d < height %d", tr.Rounds(), tr.Height())
		}
	})
}

func TestRender(t *testing.T) {
	tr := New(Binomial, 4, 0)
	out := Render(tr, func(v int) string { return fmt.Sprintf("v%d", v) })
	want := "v0\n  v2\n    v3\n  v1\n"
	if out != want {
		t.Fatalf("Render = %q, want %q", out, want)
	}
}
