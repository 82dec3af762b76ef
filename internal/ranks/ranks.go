// Package ranks holds what every layer needs to treat a list of global ranks
// as the identity of a task group: a hash to find the list in a registry
// without formatting it, and the dense rank-to-position index the list's
// members are looked up in.
package ranks

import "fmt"

// Hash returns a hash of the ranks in order (FNV-1a over the values).
// Registries bucket their groups by it and settle a bucket with slices.Equal.
func Hash(members []int) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range members {
		h = (h ^ uint64(r)) * 1099511628211
	}
	return h
}

// Index maps the members of a group to their positions in its member list.
// It covers the span of the member ranks as an array, so a lookup is a bounds
// check and a load.
type Index struct {
	lo, n int     // the ranks lo..lo+n-1 are covered
	pos   []int32 // rank - lo -> position, -1 for a non-member; nil when every covered rank is a member at position rank - lo
}

// All returns the index of the list 0, 1, ..., n-1. It stores nothing.
func All(n int) Index { return Index{n: n} }

// NewIndex checks a member list of a machine with p ranks — not empty, every
// rank in [0, p), none twice — and returns its index. It panics on a bad list,
// with pkg starting the message.
func NewIndex(pkg string, members []int, p int) Index {
	if len(members) == 0 {
		panic(pkg + ": empty task group")
	}
	lo, hi, ascending := members[0], members[0], true
	for i, r := range members {
		if r < 0 || r >= p {
			panic(fmt.Sprintf("%s: group rank %d out of range [0,%d)", pkg, r, p))
		}
		lo, hi, ascending = min(lo, r), max(hi, r), ascending && r == members[0]+i
	}
	if ascending { // a run of consecutive ranks: every position is rank - lo
		return Index{lo: lo, n: len(members)}
	}
	x := Index{lo: lo, n: hi - lo + 1, pos: make([]int32, hi-lo+1)}
	for i := range x.pos {
		x.pos[i] = -1
	}
	for i, r := range members {
		if x.pos[r-lo] >= 0 {
			panic(fmt.Sprintf("%s: duplicate rank %d in group", pkg, r))
		}
		x.pos[r-lo] = int32(i)
	}
	return x
}

// Of returns the position of a global rank in the member list, or -1 for a
// non-member.
func (x *Index) Of(rank int) int {
	i := rank - x.lo
	if uint(i) >= uint(x.n) {
		return -1
	}
	if x.pos == nil {
		return i
	}
	return int(x.pos[i])
}
