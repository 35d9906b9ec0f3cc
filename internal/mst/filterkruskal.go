package mst

import (
	"sort"

	"mndmst/internal/dsu"
	"mndmst/internal/graph"
)

// FilterKruskal computes the MSF with the filter-Kruskal algorithm
// (Osipov, Sanders, Singler 2009): quickselect-style partitioning by a
// pivot weight, recursing on the light half first and filtering out edges
// whose endpoints are already connected before touching the heavy half.
// On random weights it approaches O(E + V log V log(E/V)) and serves as a
// third, structurally different reference implementation for
// cross-checking.
func FilterKruskal(el *graph.EdgeList) *Forest {
	idx := make([]int32, 0, len(el.Edges))
	for i := range el.Edges {
		if el.Edges[i].U != el.Edges[i].V {
			idx = append(idx, int32(i))
		}
	}
	d := dsu.New(int(el.N))
	f := &Forest{}
	filterKruskal(el, idx, d, f)
	f.Components = int(el.N) - len(f.EdgeIDs)
	f.sortIDs()
	return f
}

// kruskalThreshold is the subproblem size below which plain sort+Kruskal
// takes over.
const kruskalThreshold = 64

func filterKruskal(el *graph.EdgeList, idx []int32, d *dsu.DSU, f *Forest) {
	if len(idx) == 0 {
		return
	}
	if len(idx) <= kruskalThreshold {
		sort.Slice(idx, func(i, j int) bool { return graph.WeightLess(el.Edges[idx[i]].W, el.Edges[idx[j]].W) })
		for _, i := range idx {
			e := &el.Edges[i]
			if d.Union(e.U, e.V) {
				f.EdgeIDs = append(f.EdgeIDs, i)
				f.TotalWeight += e.W
			}
		}
		return
	}
	// Median-of-three pivot on weights (all distinct).
	pivot := medianOfThree(el, idx)
	light := make([]int32, 0, len(idx)/2)
	heavy := make([]int32, 0, len(idx)/2)
	for _, i := range idx {
		if !graph.WeightLess(pivot, el.Edges[i].W) { // W <= pivot
			light = append(light, i)
		} else {
			heavy = append(heavy, i)
		}
	}
	filterKruskal(el, light, d, f)
	// Filter: drop heavy edges already internal to a component.
	kept := heavy[:0]
	for _, i := range heavy {
		e := &el.Edges[i]
		if !d.Same(e.U, e.V) {
			kept = append(kept, i)
		}
	}
	filterKruskal(el, kept, d, f)
}

func medianOfThree(el *graph.EdgeList, idx []int32) uint64 {
	a := el.Edges[idx[0]].W
	b := el.Edges[idx[len(idx)/2]].W
	c := el.Edges[idx[len(idx)-1]].W
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
