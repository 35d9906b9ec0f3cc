package mndmst_test

import (
	"fmt"
	"strings"

	"mndmst"
)

// The basic flow: build a graph, run MND-MST on a simulated cluster,
// verify the forest is exact.
func ExampleFindMSF() {
	g, _ := mndmst.NewGraph(4, []mndmst.Edge{
		{U: 0, V: 1, Weight: 4},
		{U: 1, V: 2, Weight: 2},
		{U: 2, V: 3, Weight: 7},
		{U: 3, V: 0, Weight: 1},
		{U: 0, V: 2, Weight: 5},
	})
	res, err := mndmst.FindMSF(g, mndmst.Options{Nodes: 2})
	if err != nil {
		panic(err)
	}
	if err := mndmst.Verify(g, res); err != nil {
		panic(err)
	}
	fmt.Println("edges:", len(res.EdgeIDs), "components:", res.Components)
	// Output: edges: 3 components: 1
}

// Comparing MND-MST with the Pregel+-style BSP baseline on the same
// workload: both compute the identical forest, but with very different
// communication behaviour.
func ExampleFindMSFBSP() {
	g := mndmst.GenerateWebGraph(2000, 20_000, 0.85, 7)
	mnd, _ := mndmst.FindMSF(g, mndmst.Options{Nodes: 8})
	bsp, _ := mndmst.FindMSFBSP(g, mndmst.Options{Nodes: 8})
	fmt.Println("same forest:", mnd.TotalWeight == bsp.TotalWeight)
	fmt.Println("BSP messages more:", bsp.MessagesSent > mnd.MessagesSent)
	// Output:
	// same forest: true
	// BSP messages more: true
}

// Generating one of the paper's Table 2 workload analogues.
func ExampleGenerateProfile() {
	g, err := mndmst.GenerateProfile("road_usa", 0.1)
	if err != nil {
		panic(err)
	}
	st := g.ComputeStats()
	fmt.Println("connected:", st.Components == 1)
	fmt.Printf("avg degree: %.1f\n", st.AvgDegree)
	// Output:
	// connected: true
	// avg degree: 2.4
}

// Connected components reuse the MND-MST pipeline.
func ExampleFindConnectedComponents() {
	g, _ := mndmst.NewGraph(5, []mndmst.Edge{
		{U: 0, V: 1, Weight: 1},
		{U: 3, V: 4, Weight: 2},
	})
	res, _ := mndmst.FindConnectedComponents(g, mndmst.Options{Nodes: 2})
	fmt.Println("components:", res.Components, "labels:", res.Label)
	// Output: components: 3 labels: [0 0 2 3 3]
}

// Distributed BFS on the same simulated cluster.
func ExampleBFS() {
	g := mndmst.GenerateRoadNetwork(400, 3)
	res, _ := mndmst.BFS(g, mndmst.Options{Nodes: 4}, 0)
	fmt.Println("source distance:", res.Dist[0], "levels > 10:", res.Levels > 10)
	// Output: source distance: 0 levels > 10: true
}

// Jones–Plassmann coloring is partition-independent for a fixed seed.
func ExampleColoring() {
	g := mndmst.GenerateWebGraph(500, 3000, 0.8, 5)
	one, _ := mndmst.Coloring(g, mndmst.Options{Nodes: 1}, 9)
	four, _ := mndmst.Coloring(g, mndmst.Options{Nodes: 4}, 9)
	same := true
	for v := range one.Color {
		if one.Color[v] != four.Color[v] {
			same = false
		}
	}
	fmt.Println("identical across rank counts:", same)
	// Output: identical across rank counts: true
}

// Run traces export per-rank accounting for offline analysis: one JSON
// line per rank, then one per phase that rank ran.
func ExampleRunTrace() {
	g := mndmst.GenerateWebGraph(2000, 16_000, 0.85, 11)
	res, _ := mndmst.FindMSF(g, mndmst.Options{Nodes: 4})
	var buf strings.Builder
	_ = res.Trace.WriteJSONL(&buf)
	fmt.Println("rank records:", strings.Count(buf.String(), `"kind":"rank"`))
	// Output: rank records: 4
}
