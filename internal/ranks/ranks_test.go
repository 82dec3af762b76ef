package ranks

import (
	"slices"
	"testing"
)

func TestIndex(t *testing.T) {
	members := []int{9, 2, 14, 8}
	x := NewIndex("t", members, 16)
	for r := -2; r < 20; r++ {
		if got, want := x.Of(r), slices.Index(members, r); got != want {
			t.Errorf("Of(%d) = %d, want %d", r, got, want)
		}
	}
	all := All(5)
	for r := -2; r < 8; r++ {
		want := r
		if r < 0 || r >= 5 {
			want = -1
		}
		if got := all.Of(r); got != want {
			t.Errorf("All(5).Of(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestNewIndexRejects(t *testing.T) {
	for _, members := range [][]int{{}, {4}, {-1}, {1, 1}, {0, 3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndex(%v) of 4 ranks did not panic", members)
				}
			}()
			NewIndex("t", members, 4)
		}()
	}
}

func TestHashSeesOrderAndLength(t *testing.T) {
	lists := [][]int{{}, {0}, {0, 0}, {1, 2}, {2, 1}, {1, 2, 3}, {12}, {1, 2, 0}}
	seen := map[uint64][]int{}
	for _, l := range lists {
		h := Hash(l)
		if prev, dup := seen[h]; dup {
			t.Errorf("%v and %v hash alike", prev, l)
		}
		seen[h] = l
		if Hash(slices.Clone(l)) != h {
			t.Errorf("hash of %v depends on more than its elements", l)
		}
	}
}
