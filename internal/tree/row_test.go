package tree

import (
	"slices"
	"testing"
)

// checkRows holds BinomialRow to New(Binomial, n, root) for every vertex.
func checkRows(t *testing.T, n, root int) {
	t.Helper()
	tr := New(Binomial, n, root)
	var buf [MaxBinomialChildren]int
	for v := 0; v < n; v++ {
		parent, kids := BinomialRow(n, root, v, buf[:0])
		if len(kids) > Log2Ceil(n) {
			t.Fatalf("BinomialRow(%d, %d, %d): %d children, more than Log2Ceil(n)", n, root, v, len(kids))
		}
		if parent != tr.Parent[v] || !slices.Equal(kids, tr.Children[v]) {
			t.Fatalf("BinomialRow(%d, %d, %d) = %d %v, tree has %d %v",
				n, root, v, parent, kids, tr.Parent[v], tr.Children[v])
		}
	}
}

func TestBinomialRowMatchesNewSmall(t *testing.T) {
	for n := 1; n <= 130; n++ {
		for root := 0; root < n; root++ {
			checkRows(t, n, root)
		}
	}
}

func TestBinomialRowMatchesNewAroundPowersOfTwo(t *testing.T) {
	for k := 1; k <= 17; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			for _, root := range []int{0, 1, n / 3, n - 1} {
				checkRows(t, n, root%n)
			}
		}
	}
}

func TestBinomialRowAllocatesNothing(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() {
		var buf [MaxBinomialChildren]int
		BinomialRow(1<<20, 7, 7, buf[:0])
	}); a != 0 {
		t.Errorf("BinomialRow into a stack buffer allocates %v objects", a)
	}
}

func TestBinomialRowPanics(t *testing.T) {
	// The n and root New rejects (TestNewPanics), and a vertex out of range.
	for _, c := range []struct{ n, root, v int }{{0, 0, 0}, {4, -1, 0}, {4, 4, 0}, {4, 0, -1}, {4, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BinomialRow(%d,%d,%d) did not panic", c.n, c.root, c.v)
				}
			}()
			BinomialRow(c.n, c.root, c.v, nil)
		}()
	}
}

var rowSink int

// One rank's row at 256 vertices against the whole tree it used to build for
// it (BenchmarkNewBinomial256).
func BenchmarkBinomialRow256(b *testing.B) {
	var buf [MaxBinomialChildren]int
	for i := 0; i < b.N; i++ {
		parent, kids := BinomialRow(256, i&255, (i*7)&255, buf[:0])
		rowSink += parent + len(kids)
	}
}

func BenchmarkNewBinomial256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rowSink += New(Binomial, 256, i&255).Parent[(i*7)&255]
	}
}
