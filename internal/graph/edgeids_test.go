package graph

import (
	"encoding/binary"
	"slices"
	"testing"
)

// TestSortEdgeIDs covers both paths of SortEdgeIDs: the bitmap, which
// allocates its one bitmap, and the slices.Sort fallback, which allocates
// nothing, on a sparse span and after a duplicate (which must be kept).
func TestSortEdgeIDs(t *testing.T) {
	// dense spans ids 0..597, 9 words for 200 ids: big enough that the
	// bitmap cannot live on the stack.
	var dense []int32
	for i := int32(597); i >= 0; i -= 3 {
		dense = append(dense, i^1)
	}
	for _, tc := range []struct {
		name   string
		ids    []int32
		allocs float64
	}{
		{"empty", nil, 0},
		{"single", []int32{7}, 0},
		{"dense", dense, 1},
		{"dense negative", slices.Concat([]int32{-700, -5, -64, -63}, dense), 1},
		{"sparse", []int32{1 << 20, 5, 1 << 25, 70000}, 0},
		{"duplicate", slices.Concat(dense, []int32{dense[7], dense[0]}), 1},
	} {
		want := slices.Clone(tc.ids)
		slices.Sort(want)
		got := slices.Clone(tc.ids)
		SortEdgeIDs(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: SortEdgeIDs(%v) = %v, want %v", tc.name, tc.ids, got, want)
		}
		buf := make([]int32, len(tc.ids))
		allocs := testing.AllocsPerRun(10, func() {
			copy(buf, tc.ids)
			SortEdgeIDs(buf)
		})
		if allocs != tc.allocs {
			t.Errorf("%s: %v allocations, want %v", tc.name, allocs, tc.allocs)
		}
	}
}

// FuzzSortEdgeIDs checks SortEdgeIDs against slices.Sort. Narrow inputs
// are 16-bit offsets from base, so their spans are dense and often hold
// duplicates; wide inputs are raw 32-bit ids, so their spans are sparse.
func FuzzSortEdgeIDs(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0}, int32(0), false)
	f.Add([]byte{3, 0, 1, 0, 3, 0}, int32(-100), false)
	f.Add([]byte{0, 0, 0, 128, 1, 0, 0, 0, 255, 255, 255, 127}, int32(0), true)
	f.Fuzz(func(t *testing.T, data []byte, base int32, wide bool) {
		var ids []int32
		if wide {
			for ; len(data) >= 4; data = data[4:] {
				ids = append(ids, int32(binary.LittleEndian.Uint32(data)))
			}
		} else {
			for ; len(data) >= 2; data = data[2:] {
				ids = append(ids, base>>1+int32(binary.LittleEndian.Uint16(data)))
			}
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		SortEdgeIDs(ids)
		if !slices.Equal(ids, want) {
			t.Fatalf("SortEdgeIDs = %v, want %v", ids, want)
		}
	})
}
