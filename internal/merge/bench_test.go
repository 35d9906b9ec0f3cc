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

// remoteDeltas returns, for every window, the parent deltas the other
// windows send in core's merge phase: each sends its border vertices (those
// with a live cut arc) whose parent differs from their id, in rank order.
func remoteDeltas(parent []int32, windows []*boruvka.Local) [][]Delta {
	border := make([][]Delta, len(windows))
	for r, win := range windows {
		for i, id := range win.IDs {
			if parent[id] != id && win.Border(i) {
				border[r] = append(border[r], Delta{Old: id, New: parent[id]})
			}
		}
	}
	remote := make([][]Delta, len(windows))
	for r := range windows {
		for s, ds := range border {
			if s != r {
				remote[r] = append(remote[r], ds...)
			}
		}
	}
	return remote
}

// BenchmarkReduceWindow reduces every first-iteration window of a graph of
// the shape of an e2ebench solve workload as hypar.Runtime.Reduce does in
// core's merge phase: every window runs the kernel, and each window's
// ghosts resolve through the deltas the other windows send, the lookup
// built from them inside the timed loop as core builds it. Relabel then
// walks the window's live arcs, dropping self edges and keeping the
// lightest edge per component pair, into a fresh slice as the first
// iteration does.
func BenchmarkReduceWindow(b *testing.B) {
	for _, s := range []struct {
		name  string
		graph func() *graph.EdgeList
		ranks int
	}{
		{"web-p4", func() *graph.EdgeList { return gen.WebGraph(3000, 90000, 0.88, 1) }, 4},
		{"web-lowloc-p16", func() *graph.EdgeList { return gen.WebGraph(700, 11000, 0.45, 1) }, 16},
		{"road-p4", func() *graph.EdgeList { return gen.RoadNetwork(20000, 1) }, 4},
	} {
		b.Run(s.name, func(b *testing.B) {
			parent, windows, bounds := firstIteration(s.graph(), s.ranks)
			remote := remoteDeltas(parent, windows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, win := range windows {
					ghosts := NewParentTable(win.GhostLo, win.GhostHi)
					for _, d := range remote[r] {
						ghosts.Set(d.Old, d.New)
					}
					reduceSink, _ = Relabel(nil, win, parent[bounds[r]:bounds[r+1]], ghosts.Of)
				}
			}
		})
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
