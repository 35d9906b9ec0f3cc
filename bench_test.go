package mndmst_test

import (
	"path/filepath"
	"testing"

	"mndmst"
)

// --- Host-side microbenchmarks of the core paths ---

// BenchmarkFindMSFHost measures real wall-clock performance of the whole
// MND-MST pipeline (4 simulated ranks) on the host.
func BenchmarkFindMSFHost(b *testing.B) {
	g := mndmst.GenerateWebGraph(16384, 16384*20, 0.85, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindMSFHostGPU measures the pipeline of BenchmarkFindMSFHost
// in CPU+GPU mode on the Cray XC40: the §4.3.1 GPU-share estimate runs
// first, then every rank splits its window between its CPU and its
// simulated K40.
func BenchmarkFindMSFHostGPU(b *testing.B) {
	g := mndmst.GenerateWebGraph(16384, 16384*20, 0.85, 99)
	opts := mndmst.Options{Nodes: 4, Machine: mndmst.CrayXC40, UseGPU: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mndmst.FindMSF(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindMSFHostRoad measures the whole pipeline on a near-planar
// road grid (20 000 vertices) on 4 ranks, the shape of e2ebench's road-p4
// workload: many Borůvka rounds over low-degree vertices, most of whose
// arcs become component-internal, so the kernel's scans and the
// merge-phase relabel carry most of the work.
func BenchmarkFindMSFHostRoad(b *testing.B) {
	g := mndmst.GenerateRoadNetwork(20000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindMSFHostLowLocality16 measures the whole pipeline where its
// fixed per-rank and per-iteration costs dominate: a small low-locality
// web graph (700 vertices, 11 000 edges) on 16 ranks, the shape of
// e2ebench's web-lowloc-p16 workload. Most edges cross partitions, so the
// component-graph merge path carries most of the work; allocations are
// reported because they are most of its cost.
func BenchmarkFindMSFHostLowLocality16(b *testing.B) {
	g := mndmst.GenerateWebGraph(700, 11000, 0.45, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindMSFHostRMAT measures the whole pipeline where merge volume
// dominates at scale: a Graph500-style R-MAT graph (32 768 vertices,
// 524 288 edges, no locality) on 4 ranks. Most edges cross partitions, so
// the component graph that moves between ranks stays large; its B/op is
// mostly the merge path's copies.
func BenchmarkFindMSFHostRMAT(b *testing.B) {
	g := mndmst.GenerateRMAT(1<<15, 1<<19, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindMSFHostBA measures the whole pipeline on a Barabási–Albert
// graph (32 768 vertices, k = 8, so m ≈ 8n) on 4 ranks: dense enough that
// the public pipeline filters, with a degree spread between the web and
// R-MAT graphs', the shape on which a light share far from 2n/m keeps
// most heavy edges.
func BenchmarkFindMSFHostBA(b *testing.B) {
	g := mndmst.GenerateBarabasiAlbert(1<<15, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterKruskalHost is the floor of BenchmarkFindMSFHost:
// sequential filter-Kruskal, the fastest exact algorithm in the
// repository, on the same graph.
func BenchmarkFilterKruskalHost(b *testing.B) {
	benchmarkSequential(b, mndmst.GenerateWebGraph(16384, 16384*20, 0.85, 99))
}

// BenchmarkFilterKruskalHostRoad is the floor of BenchmarkFindMSFHostRoad,
// on the same graph.
func BenchmarkFilterKruskalHostRoad(b *testing.B) {
	benchmarkSequential(b, mndmst.GenerateRoadNetwork(20000, 1))
}

// BenchmarkFilterKruskalHostLowLocality16 is the floor of
// BenchmarkFindMSFHostLowLocality16, on the same graph.
func BenchmarkFilterKruskalHostLowLocality16(b *testing.B) {
	benchmarkSequential(b, mndmst.GenerateWebGraph(700, 11000, 0.45, 1))
}

// BenchmarkFilterKruskalHostRMAT is the floor of BenchmarkFindMSFHostRMAT,
// on the same graph.
func BenchmarkFilterKruskalHostRMAT(b *testing.B) {
	benchmarkSequential(b, mndmst.GenerateRMAT(1<<15, 1<<19, 1))
}

// BenchmarkFilterKruskalHostBA is the floor of BenchmarkFindMSFHostBA,
// on the same graph.
func BenchmarkFilterKruskalHostBA(b *testing.B) {
	benchmarkSequential(b, mndmst.GenerateBarabasiAlbert(1<<15, 8, 1))
}

func benchmarkSequential(b *testing.B, g *mndmst.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mndmst.FindMSFSequential(g)
	}
}

// BenchmarkLoadGraph measures the decode of a .mnd file of the shape of
// e2ebench's web-p4 workload (3 000 vertices, 90 000 edges), the read
// every solve starts with; its B/op is the decode's allocation.
func BenchmarkLoadGraph(b *testing.B) {
	path := filepath.Join(b.TempDir(), "web.mnd")
	if err := mndmst.SaveGraph(path, mndmst.GenerateWebGraph(3000, 90000, 0.88, 1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mndmst.LoadGraph(path); err != nil {
			b.Fatal(err)
		}
	}
}
