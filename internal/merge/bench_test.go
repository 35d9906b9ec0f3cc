package merge

import (
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/gen"
	"mndmst/internal/wire"
)

// BenchmarkRemoveMultiEdges removes the multi edges of one rank's
// first-iteration merge input on a web graph the size of e2ebench's
// web-p4 (3 000 vertices, 90 000 edges, 4 ranks): every window runs the
// kernel, and window 0's edges are relabelled by the window parents, as
// hypar.Runtime.Reduce does.
func BenchmarkRemoveMultiEdges(b *testing.B) {
	const ranks = 4
	el := gen.WebGraph(3000, 90000, 0.88, 1)
	deg := el.Degrees()
	bound := func(r int32) int32 { return r * el.N / ranks }
	parent := make([]int32, el.N)
	windows := make([]*boruvka.Local, ranks)
	for r := int32(0); r < ranks; r++ {
		lo, hi := bound(r), bound(r+1)
		windows[r] = boruvka.NewWindow(el, deg, lo, hi)
		res := boruvka.Run(windows[r], boruvka.DefaultOptions())
		copy(parent[lo:hi], res.Parent)
	}
	ghost := func(v int32) int32 { return parent[v] }
	in := Relabel(nil, windows[0], parent[:bound(1)], ghost)
	buf := make([]wire.WEdge, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		RemoveMultiEdges(buf)
	}
}
