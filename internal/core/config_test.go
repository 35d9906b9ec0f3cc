package core

import (
	"context"
	"testing"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
)

// TestConfigExtremes drives Algorithm 1 through the corners of its
// configuration space; every setting must still produce the exact MSF.
func TestConfigExtremes(t *testing.T) {
	el := gen.WebGraph(2048, 20_000, 0.8, 131)
	base := hypar.DefaultConfig()

	cases := []struct {
		name string
		mut  func(*hypar.Config)
		p    int
	}{
		{"leader-only", func(c *hypar.Config) { c.LeaderOnly = true }, 8},
		{"merge-threshold-huge", func(c *hypar.Config) { c.MergeEdgeThreshold = 1 << 40 }, 8},
		{"merge-threshold-tiny", func(c *hypar.Config) { c.MergeEdgeThreshold = 1 }, 8},
		{"no-ring-rounds", func(c *hypar.Config) { c.MaxRingRounds = 0 }, 8},
		{"many-ring-rounds", func(c *hypar.Config) { c.MaxRingRounds = 50 }, 8},
		{"convergence-always", func(c *hypar.Config) { c.ConvergenceRatio = 1.0 }, 8},
		{"convergence-never", func(c *hypar.Config) { c.ConvergenceRatio = 0.0 }, 8},
		{"tiny-chunks", func(c *hypar.Config) { c.Chunk = 64 }, 4},
		{"group-larger-than-cluster", func(c *hypar.Config) { c.GroupSize = 64 }, 8},
		{"odd-ranks", func(c *hypar.Config) {}, 7},
		{"prime-ranks-group-3", func(c *hypar.Config) { c.GroupSize = 3 }, 13},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		res, err := Run(context.Background(), el, tc.p, amd(), cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := VerifyAgainstKruskal(el, res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestLeaderOnlyPeaksHigher asserts the space-complexity claim of §3.4:
// without hierarchical merging, one node must hold everything at once.
func TestLeaderOnlyPeaksHigher(t *testing.T) {
	// Low locality → many residual cut edges → visible merge pressure.
	el := gen.WebGraph(8192, 120_000, 0.4, 133)
	hier := hypar.DefaultConfig()
	lead := hypar.DefaultConfig()
	lead.LeaderOnly = true
	h, err := Run(context.Background(), el, 16, amd(), hier, false)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Run(context.Background(), el, 16, amd(), lead, false)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Forest.Equal(l.Forest) {
		t.Fatal("strategies disagree on the forest")
	}
	if l.PeakEdges <= h.PeakEdges {
		t.Fatalf("leader-only peak %d not above hierarchical %d", l.PeakEdges, h.PeakEdges)
	}
}

// TestIterationAndLevelCounters sanity-checks the Algorithm 1 telemetry.
func TestIterationAndLevelCounters(t *testing.T) {
	el := gen.WebGraph(4096, 40_000, 0.8, 137)
	res, err := Run(context.Background(), el, 16, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 {
		t.Fatalf("iterations=%d", res.Iterations)
	}
	if res.Levels < 1 {
		t.Fatalf("levels=%d", res.Levels)
	}
	if res.PeakEdges <= 0 {
		t.Fatalf("peak=%d", res.PeakEdges)
	}
	// 16 ranks with groups of 4 need at least 2 leader-merge levels.
	if res.Levels < 2 {
		t.Fatalf("levels=%d want >=2 for 16 ranks", res.Levels)
	}
}

// TestSingleVertexAndSingleEdge covers the degenerate graphs.
func TestSingleVertexAndSingleEdge(t *testing.T) {
	one := &graph.EdgeList{N: 1}
	res, err := Run(context.Background(), one, 4, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forest.EdgeIDs) != 0 || res.Forest.Components != 1 {
		t.Fatalf("forest=%+v", res.Forest)
	}

	pair := &graph.EdgeList{N: 2, Edges: []graph.Edge{
		{U: 0, V: 1, W: graph.MakeWeight(3, 0)},
	}}
	res, err = Run(context.Background(), pair, 4, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forest.EdgeIDs) != 1 || res.Forest.Components != 1 {
		t.Fatalf("forest=%+v", res.Forest)
	}
	if err := VerifyAgainstKruskal(pair, res); err != nil {
		t.Fatal(err)
	}
}

// TestRecursionThreshold exercises the §4.3.3 knob: with a huge threshold
// only the first iteration runs indComp, and the forest must still be
// exact.
func TestRecursionThreshold(t *testing.T) {
	el := gen.WebGraph(4096, 40_000, 0.7, 139)
	for _, min := range []int{0, 1, 1 << 30} {
		cfg := hypar.DefaultConfig()
		cfg.RecursionMinEdges = min
		res, err := Run(context.Background(), el, 8, amd(), cfg, false)
		if err != nil {
			t.Fatalf("min=%d: %v", min, err)
		}
		if err := VerifyAgainstKruskal(el, res); err != nil {
			t.Fatalf("min=%d: %v", min, err)
		}
	}
}

// TestMultiGPU runs the multi-device configuration with several
// accelerators per node; the forest must stay exact and extra devices must
// not slow the run down.
func TestMultiGPU(t *testing.T) {
	el := gen.WebGraph(8192, 8192*20, 0.85, 141)
	var prev float64
	for _, k := range []int{1, 2, 4} {
		cfg := hypar.DefaultConfig()
		cfg.GPUsPerNode = k
		res, err := Run(context.Background(), el, 2, cray(), cfg, true)
		if err != nil {
			t.Fatalf("gpus=%d: %v", k, err)
		}
		if err := VerifyAgainstKruskal(el, res); err != nil {
			t.Fatalf("gpus=%d: %v", k, err)
		}
		exe := res.Report.ExecutionTime()
		if prev > 0 && exe > prev*1.05 {
			t.Fatalf("gpus=%d slower than fewer devices: %g vs %g", k, exe, prev)
		}
		prev = exe
	}
}
