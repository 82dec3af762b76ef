package exp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSetWorkersClampsToOne(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(-3)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(-3), want 1", Workers())
	}
	SetWorkers(6)
	if Workers() != 6 {
		t.Fatalf("Workers() = %d, want 6", Workers())
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		const n = 100
		var hits [n]int32
		forEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, h)
			}
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(4)
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	forEach(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

func TestForEachSinglePanicUnwrapped(t *testing.T) {
	// A lone worker panic re-raises the original value, not a MultiPanic.
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(4)
	defer func() {
		r := recover()
		if r != "boom" {
			t.Fatalf("recover() = %v (%T), want the original panic value", r, r)
		}
	}()
	forEach(64, func(i int) {
		if i == 63 {
			panic("boom")
		}
	})
}

func TestForEachAggregatesAllPanics(t *testing.T) {
	// When several workers panic, every recovered value must surface: the
	// old code re-raised only the first non-nil slot, masking the rest.
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(4)
	defer func() {
		r := recover()
		mp, ok := r.(MultiPanic)
		if !ok {
			t.Fatalf("recover() = %v (%T), want MultiPanic", r, r)
		}
		// Each worker panics on its first claimed index, so with 4 workers
		// and 8 indices all 4 workers record a panic.
		if len(mp) != 4 {
			t.Fatalf("MultiPanic carries %d values, want 4: %v", len(mp), mp)
		}
		if msg := mp.Error(); !strings.Contains(msg, "4 sweep workers") {
			t.Fatalf("Error() = %q, want the worker count", msg)
		}
	}()
	forEach(8, func(i int) {
		panic(fmt.Sprintf("boom %d", i))
	})
}

// TestSweepWorkerCountInvisible is the tentpole's core guarantee: the
// rendered output of a figure and an ablation must be byte-identical
// whether the grid is swept serially or by 8 concurrent workers.
func TestSweepWorkerCountInvisible(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	g := QuickGrid()

	render := func() (figText, figCSV, ablText, ablCSV string) {
		fig := FigAbsolute(g, Bcast)
		abl := AblationTrees(g, Bcast)
		return fig.Text(), fig.CSV(), abl.Text(), abl.CSV()
	}

	SetWorkers(1)
	ft1, fc1, at1, ac1 := render()
	SetWorkers(8)
	ft8, fc8, at8, ac8 := render()

	if ft1 != ft8 {
		t.Errorf("figure text differs between -j 1 and -j 8:\n%q\n%q", ft1, ft8)
	}
	if fc1 != fc8 {
		t.Errorf("figure CSV differs between -j 1 and -j 8")
	}
	if at1 != at8 {
		t.Errorf("ablation text differs between -j 1 and -j 8:\n%q\n%q", at1, at8)
	}
	if ac1 != ac8 {
		t.Errorf("ablation CSV differs between -j 1 and -j 8")
	}
}
