package core

import (
	"context"
	"fmt"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/partition"
	"mndmst/internal/testutil"
)

// maxWindowEdges is the largest first-iteration window of el on p ranks
// partitioned by degree, speed-weighted when speeds has p entries.
func maxWindowEdges(el *graph.EdgeList, p int, speeds []float64) int {
	deg := el.Degrees()
	bounds := partition.BalancedBounds(deg, p)
	if len(speeds) == p {
		bounds = partition.WeightedBounds(deg, speeds)
	}
	peak := 0
	for i := 0; i < p; i++ {
		if n := int(boruvka.NewWindow(el, deg, bounds[i], bounds[i+1]).NumEdges); n > peak {
			peak = n
		}
	}
	return peak
}

// TestFirstIterationWindows runs MND-MST on graphs with hubs, self-loops
// and parallel edges on CPU-only, multi-device and heterogeneous
// machines: the forest is exact, and the peak edge residency is at least
// the largest first-iteration window — exactly it on one rank, where no
// merge adds edges.
func TestFirstIterationWindows(t *testing.T) {
	seed := testutil.Seed(t, 163)
	hetero := cost.AMDCluster()
	hetero.NodeSpeeds = []float64{1, 2, 0.5, 4}
	for _, tc := range []struct {
		name    string
		machine cost.Machine
		useGPU  bool
	}{
		{"cpu", amd(), false},
		{"gpu", cray(), true},
		{"speeds", hetero, false},
	} {
		for _, el := range []*graph.EdgeList{
			gen.RMAT(2048, 24_000, seed),
			gen.ErdosRenyi(12, 40, seed+1),
		} {
			for _, p := range []int{1, 2, 3, 4, 16} {
				where := fmt.Sprintf("%s N=%d p=%d", tc.name, el.N, p)
				res, err := Run(context.Background(), el, p, tc.machine, hypar.DefaultConfig(), tc.useGPU)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if err := VerifyAgainstKruskal(el, res); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				want := maxWindowEdges(el, p, tc.machine.NodeSpeeds)
				if res.PeakEdges < want || (p == 1 && res.PeakEdges != want) {
					t.Fatalf("%s: PeakEdges %d, largest window %d", where, res.PeakEdges, want)
				}
			}
		}
	}
}

// TestRunRejectsInvalidEdgeList: an endpoint outside [0, N) fails the run
// with the edge list's validation error.
func TestRunRejectsInvalidEdgeList(t *testing.T) {
	el := &graph.EdgeList{N: 3, Edges: []graph.Edge{
		{U: 0, V: 1, W: graph.MakeWeight(1, 0)},
		{U: 1, V: 3, W: graph.MakeWeight(2, 1)},
	}}
	want := el.Validate()
	if want == nil {
		t.Fatal("test edge list should be invalid")
	}
	_, err := Run(context.Background(), el, 2, amd(), hypar.DefaultConfig(), false)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Run error %v, want %v", err, want)
	}
}
