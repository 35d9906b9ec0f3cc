package boruvka

import (
	"testing"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/partition"
)

func benchLocal(b *testing.B, el *graph.EdgeList) *Local {
	b.Helper()
	ids := make([]int32, el.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	l, err := NewLocal(ids, el.Edges)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func BenchmarkKernelWebGraph(b *testing.B) {
	el := gen.WebGraph(1<<15, 1<<19, 0.85, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := benchLocal(b, el)
		b.StartTimer()
		Run(l, DefaultOptions())
	}
	b.SetBytes(int64(len(el.Edges)) * 20)
}

func BenchmarkKernelRoadNetwork(b *testing.B) {
	el := gen.RoadNetwork(1<<15, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := benchLocal(b, el)
		b.StartTimer()
		Run(l, DefaultOptions())
	}
}

// BenchmarkKernelRoadContract is BenchmarkKernelRoadNetwork with
// between-round contraction (Options.Contract) on.
func BenchmarkKernelRoadContract(b *testing.B) {
	el := gen.RoadNetwork(1<<15, 9)
	opt := DefaultOptions()
	opt.Contract = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := benchLocal(b, el)
		b.StartTimer()
		Run(l, opt)
	}
}

func BenchmarkKernelTopologyDriven(b *testing.B) {
	el := gen.WebGraph(1<<14, 1<<18, 0.85, 7)
	opt := Options{Excpt: ExcptBorderVertex, DataDriven: false}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := benchLocal(b, el)
		b.StartTimer()
		Run(l, opt)
	}
}

// BenchmarkKernelRoadWindow runs the kernel the way a rank of a 4-rank
// road-grid solve does: over a quarter window under EXCPT_BORDER_VERTEX.
// A run leaves its window's arcs reordered, so every iteration builds a
// fresh window, outside the timer, in the arc order a solve sees.
func BenchmarkKernelRoadWindow(b *testing.B) {
	el := gen.RoadNetwork(20000, 9)
	deg := el.Degrees()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		win := NewWindow(el, deg, 0, el.N/4)
		b.StartTimer()
		Run(win, DefaultOptions())
	}
}

// BenchmarkKernelWebWindows runs the kernel over the four first-iteration
// windows of a 4-rank solve of a web graph the size of e2ebench's web-p4
// (3 000 vertices, 90 000 edges), one after another, as the ranks of an
// in-process solve share the host. The windows are built fresh for every
// iteration, outside the timer.
func BenchmarkKernelWebWindows(b *testing.B) {
	const ranks = 4
	el := gen.WebGraph(3000, 90000, 0.88, 1)
	deg := el.Degrees()
	bounds := partition.BalancedBounds(deg, ranks)
	wins := make([]*Local, ranks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := range wins {
			wins[r] = NewWindow(el, deg, bounds[r], bounds[r+1])
		}
		b.StartTimer()
		for _, win := range wins {
			Run(win, DefaultOptions())
		}
	}
}

// windowSink keeps BenchmarkKernelWindowBuild's windows live.
var windowSink *Local

// BenchmarkKernelWindowBuild builds the four first-iteration windows of a
// 4-rank solve of a web graph the size of e2ebench's web-p4 (3 000
// vertices, 90 000 edges), as the ranks do from the edge list, with the
// degree allreduce replaced by a local count.
func BenchmarkKernelWindowBuild(b *testing.B) {
	benchWindowBuild(b, gen.WebGraph(3000, 90000, 0.88, 1), 4)
}

// BenchmarkKernelWindowBuildRoad is BenchmarkKernelWindowBuild on the shape
// of e2ebench's road-p4: a 20 000-vertex road grid on 4 ranks. Its edges
// come in vertex order, so whether an edge is in a rank's range is nearly
// always what it was for the edge before.
func BenchmarkKernelWindowBuildRoad(b *testing.B) {
	benchWindowBuild(b, gen.RoadNetwork(20000, 1), 4)
}

// BenchmarkKernelWindowBuildLowLocality16 is BenchmarkKernelWindowBuild on
// the shape of e2ebench's web-lowloc-p16: a low-locality web graph (700
// vertices, 11 000 edges) on 16 ranks.
func BenchmarkKernelWindowBuildLowLocality16(b *testing.B) {
	benchWindowBuild(b, gen.WebGraph(700, 11000, 0.45, 1), 16)
}

// benchWindowBuild builds every rank's window of el, as the ranks do from
// the edge list, with the degree allreduce replaced by a local count.
func benchWindowBuild(b *testing.B, el *graph.EdgeList, ranks int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deg := el.Degrees()
		bounds := partition.BalancedBounds(deg, ranks)
		for r := 0; r < ranks; r++ {
			windowSink = NewWindow(el, deg, bounds[r], bounds[r+1])
		}
	}
}
