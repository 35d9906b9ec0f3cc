package graph

import (
	"mndmst/internal/parutil"
)

// Stats summarizes a graph the way Table 2 of the paper does.
type Stats struct {
	V           int32
	E           int64
	AvgDegree   float64
	MaxDegree   int64
	ApproxDiam  int
	Components  int
	LargestComp int64
}

// ComputeStats gathers the Table 2 statistics for g. The diameter is the
// standard double-sweep BFS lower bound (exact on trees, a good estimate on
// the graph families used here), computed on the largest component.
func ComputeStats(g *CSR) Stats {
	st := Stats{V: g.N, E: g.M}
	if g.N == 0 {
		return st
	}
	st.AvgDegree = float64(g.NumArcs()) / float64(g.N)
	st.MaxDegree = parutil.ReduceInt64(int(g.N), 1<<14, 0, func(lo, hi int) int64 {
		var m int64
		for u := lo; u < hi; u++ {
			if d := g.Degree(int32(u)); d > m {
				m = d
			}
		}
		return m
	}, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})

	comp, sizes := components(g)
	st.Components = len(sizes)
	largest := 0
	for c, s := range sizes {
		if s > sizes[largest] {
			largest = c
		}
	}
	if len(sizes) > 0 {
		st.LargestComp = sizes[largest]
	}
	// Double sweep from an arbitrary vertex of the largest component.
	start := int32(-1)
	for u := int32(0); u < g.N; u++ {
		if comp[u] == int32(largest) {
			start = u
			break
		}
	}
	if start >= 0 {
		far, _ := bfsFarthest(g, start)
		_, dist := bfsFarthest(g, far)
		st.ApproxDiam = dist
	}
	return st
}

// components labels each vertex with a component index and returns the
// per-component sizes.
func components(g *CSR) (label []int32, sizes []int64) {
	label = make([]int32, g.N)
	for i := range label {
		label[i] = -1
	}
	queue := make([]int32, 0, g.N)
	for s := int32(0); s < g.N; s++ {
		if label[s] >= 0 {
			continue
		}
		c := int32(len(sizes))
		sizes = append(sizes, 0)
		label[s] = c
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			sizes[c]++
			lo, hi := g.Arcs(u)
			for a := lo; a < hi; a++ {
				v := g.Dst[a]
				if label[v] < 0 {
					label[v] = c
					queue = append(queue, v)
				}
			}
		}
	}
	return label, sizes
}

// bfsFarthest runs BFS from s and returns the farthest vertex and its
// distance.
func bfsFarthest(g *CSR, s int32) (far int32, dist int) {
	level := make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	cur := []int32{s}
	far = s
	for d := int32(1); len(cur) > 0; d++ {
		var next []int32
		for _, u := range cur {
			lo, hi := g.Arcs(u)
			for a := lo; a < hi; a++ {
				v := g.Dst[a]
				if level[v] < 0 {
					level[v] = d
					next = append(next, v)
					far = v
					dist = int(d)
				}
			}
		}
		cur = next
	}
	return far, dist
}

// CountComponents reports the number of connected components of g.
func CountComponents(g *CSR) int { //lint:testonly component-count oracle for the gen and graph tests
	_, sizes := components(g)
	return len(sizes)
}
