package merge

import (
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/partition"
)

// firstIteration runs the kernel on every window of el cut into ranks
// ranges of balanced degree sums, as the pipeline cuts them
// (partition.BalancedBounds), and returns the window parents, indexed by
// global vertex, the windows, and the bounds: rank r's range starts at
// bounds[r].
func firstIteration(el *graph.EdgeList, ranks int) (parent []int32, windows []*boruvka.Local, bounds []int32) {
	deg := el.Degrees()
	bounds = partition.BalancedBounds(deg, ranks)
	parent = make([]int32, el.N)
	windows = make([]*boruvka.Local, ranks)
	for r := range ranks {
		lo, hi := bounds[r], bounds[r+1]
		windows[r] = boruvka.NewWindow(el, deg, lo, hi)
		res := boruvka.Run(windows[r], boruvka.DefaultOptions())
		copy(parent[lo:hi], res.Parent)
	}
	return parent, windows, bounds
}

// BenchmarkReduceWindow reduces rank 0's first-iteration window on a web
// graph the size of e2ebench's web-p4 (3 000 vertices, 90 000 edges, 4
// ranks), as hypar.Runtime.Reduce does: every window runs the kernel, and
// Relabel walks window 0's live arcs through the window parents, dropping
// self edges and keeping the lightest edge per component pair, into a
// fresh slice as the first iteration does.
func BenchmarkReduceWindow(b *testing.B) {
	el := gen.WebGraph(3000, 90000, 0.88, 1)
	parent, windows, bounds := firstIteration(el, 4)
	ghost := func(v int32) int32 { return parent[v] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduceSink, _ = Relabel(nil, windows[0], parent[:bounds[1]], ghost)
	}
}

// reduceSink keeps BenchmarkReduceWindow's result live.
var reduceSink []graph.Edge

// BenchmarkDedupeByID dedupes rank 0's first ring step on a graph of the
// shape of e2ebench's web-lowloc-p16 (700 vertices, 11 000 edges, locality
// 0.45, 16 ranks in groups of 4): the edges rank 0 keeps, then the segment
// rank 1 sends it, each rank's edges reduced from its window as
// hypar.Runtime.Reduce does and split in place as the ring step does. The
// segment lands in the spare tail of rank 0's kept list, where the ring
// step decodes it.
func BenchmarkDedupeByID(b *testing.B) {
	el := gen.WebGraph(700, 11000, 0.45, 1)
	parent, windows, bounds := firstIteration(el, 16)
	ghost := func(v int32) int32 { return parent[v] }
	split := func(r int) (keptE, movedE []graph.Edge) {
		lo, hi := bounds[r], bounds[r+1]
		edges, _ := Relabel(nil, windows[r], parent[lo:hi], ghost)
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
