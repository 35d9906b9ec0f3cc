package graph

import (
	"math/bits"
	"slices"
)

// SortEdgeIDs sorts ids ascending in place. When the span of the ids
// needs at most one 64-bit word per id, it marks them in a bitmap and
// reads them back in order, which is linear; a sparser span falls back to
// slices.Sort. So does a duplicate, which the bitmap would collapse: the
// caller gets every id it passed, so a forest that chose an edge twice
// still fails verification.
func SortEdgeIDs(ids []int32) {
	if len(ids) < 2 {
		return
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids[1:] {
		lo, hi = min(lo, id), max(hi, id)
	}
	words := (int64(hi)-int64(lo))/64 + 1
	if words > int64(len(ids)) {
		slices.Sort(ids)
		return
	}
	set := make([]uint64, words)
	for _, id := range ids {
		x := uint32(id - lo)
		set[x/64] |= 1 << (x % 64)
	}
	marked := 0
	for _, w := range set {
		marked += bits.OnesCount64(w)
	}
	if marked != len(ids) {
		slices.Sort(ids)
		return
	}
	i := 0
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			ids[i] = lo + int32(wi*64+bits.TrailingZeros64(w))
			i++
		}
	}
}
