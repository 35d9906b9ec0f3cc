package merge

import (
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
)

// firstIteration runs the kernel on every window of el cut into ranks
// equal vertex ranges and returns the window parents, indexed by global
// vertex, the windows, and bound, the first vertex of a rank's range.
func firstIteration(el *graph.EdgeList, ranks int32) (parent []int32, windows []*boruvka.Local, bound func(int32) int32) {
	deg := el.Degrees()
	bound = func(r int32) int32 { return r * el.N / ranks }
	parent = make([]int32, el.N)
	windows = make([]*boruvka.Local, ranks)
	for r := int32(0); r < ranks; r++ {
		lo, hi := bound(r), bound(r+1)
		windows[r] = boruvka.NewWindow(el, deg, lo, hi)
		res := boruvka.Run(windows[r], boruvka.DefaultOptions())
		copy(parent[lo:hi], res.Parent)
	}
	return parent, windows, bound
}

// BenchmarkRemoveMultiEdges removes the multi edges of one rank's
// first-iteration merge input on a web graph the size of e2ebench's
// web-p4 (3 000 vertices, 90 000 edges, 4 ranks): every window runs the
// kernel, and window 0's edges are relabelled by the window parents, as
// hypar.Runtime.Reduce does.
func BenchmarkRemoveMultiEdges(b *testing.B) {
	el := gen.WebGraph(3000, 90000, 0.88, 1)
	parent, windows, bound := firstIteration(el, 4)
	ghost := func(v int32) int32 { return parent[v] }
	in := Relabel(nil, windows[0], parent[:bound(1)], ghost)
	buf := make([]graph.Edge, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		RemoveMultiEdges(buf)
	}
}

// BenchmarkDedupeByID dedupes rank 0's first ring step on a graph of the
// shape of e2ebench's web-lowloc-p16 (700 vertices, 11 000 edges, locality
// 0.45, 16 ranks in groups of 4): the edges rank 0 keeps, then the segment
// rank 1 sends it, each rank's edges reduced from its window as
// hypar.Runtime.Reduce does and split as the ring step does.
func BenchmarkDedupeByID(b *testing.B) {
	el := gen.WebGraph(700, 11000, 0.45, 1)
	parent, windows, bound := firstIteration(el, 16)
	ghost := func(v int32) int32 { return parent[v] }
	split := func(r int32) (keptE, movedE []graph.Edge) {
		lo, hi := bound(r), bound(r+1)
		edges, _ := RemoveMultiEdges(Relabel(nil, windows[r], parent[lo:hi], ghost))
		var owned []int32
		for v := lo; v < hi; v++ {
			if parent[v] == v {
				owned = append(owned, v)
			}
		}
		kept, sent := SplitSegment(owned, 4)
		return SplitEdges(edges, kept, sent)
	}
	in, _ := split(0)
	_, incoming := split(1)
	in = append(in, incoming...)
	buf := make([]graph.Edge, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		DedupeByID(buf)
	}
}
