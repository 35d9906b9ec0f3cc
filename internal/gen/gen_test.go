package gen

import (
	"testing"
	"testing/quick"

	"mndmst/internal/graph"
	"mndmst/internal/testutil"
)

func TestGrid2DStructure(t *testing.T) {
	el := Grid2D(3, 4, 0, 7)
	if el.N != 12 {
		t.Fatalf("N=%d", el.N)
	}
	// 3x4 grid: horizontal 3*3=9, vertical 2*4=8 → 17 edges.
	if len(el.Edges) != 17 {
		t.Fatalf("edges=%d want 17", len(el.Edges))
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.MustBuildCSR(el)
	if graph.CountComponents(g) != 1 {
		t.Fatal("grid should be connected")
	}
}

func TestGrid2DDiagonals(t *testing.T) {
	noDiag := Grid2D(10, 10, 0, 3)
	withDiag := Grid2D(10, 10, 1, 3)
	if len(withDiag.Edges) <= len(noDiag.Edges) {
		t.Fatal("diagProb=1 should add edges")
	}
}

func TestRoadNetworkShape(t *testing.T) {
	el := RoadNetwork(2500, 11)
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.MustBuildCSR(el)
	st := graph.ComputeStats(g)
	if st.Components != 1 {
		t.Fatalf("road network disconnected: %d components", st.Components)
	}
	if st.AvgDegree < 1.8 || st.AvgDegree > 3.2 {
		t.Fatalf("avg degree %.2f outside road-like band", st.AvgDegree)
	}
	if st.ApproxDiam < 30 {
		t.Fatalf("diameter %d too small for a road-like graph of 2500 vertices", st.ApproxDiam)
	}
}

func TestRMATShape(t *testing.T) {
	el := RMAT(4096, 4096*16, 13)
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.MustBuildCSR(el)
	st := graph.ComputeStats(g)
	// Power-law signature: the max degree dwarfs the average.
	if float64(st.MaxDegree) < 10*st.AvgDegree {
		t.Fatalf("max degree %d vs avg %.1f: not skewed enough", st.MaxDegree, st.AvgDegree)
	}
	if st.ApproxDiam > 20 {
		t.Fatalf("web-like graph has diameter %d", st.ApproxDiam)
	}
}

func TestRMATDeterministicPerSeed(t *testing.T) {
	a := RMAT(256, 1024, 5)
	b := RMAT(256, 1024, 5)
	c := RMAT(256, 1024, 6)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed, different sizes")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed must generate identical graphs")
		}
	}
	same := true
	for i := range a.Edges {
		if a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds generated identical graphs")
	}
}

func TestErdosRenyi(t *testing.T) {
	el := ErdosRenyi(100, 500, 3)
	if el.N != 100 || len(el.Edges) != 500 {
		t.Fatalf("N=%d E=%d", el.N, len(el.Edges))
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedRandomIsConnected(t *testing.T) {
	f := func(seed int64) bool {
		n := int32(2 + int(uint64(seed)%200))
		m := int(n) + 20
		el := ConnectedRandom(n, m, seed)
		if el.Validate() != nil || len(el.Edges) != m {
			return false
		}
		return graph.CountComponents(graph.MustBuildCSR(el)) == 1
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 25)); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedRandomPanicsOnTooFewEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConnectedRandom(10, 3, 1)
}

func TestFixtures(t *testing.T) {
	p := Path(5, 1)
	if len(p.Edges) != 4 {
		t.Fatalf("path edges=%d", len(p.Edges))
	}
	c := Cycle(5, 1)
	if len(c.Edges) != 5 {
		t.Fatalf("cycle edges=%d", len(c.Edges))
	}
	s := Star(5, 1)
	if len(s.Edges) != 4 {
		t.Fatalf("star edges=%d", len(s.Edges))
	}
	for _, el := range []*graph.EdgeList{p, c, s} {
		if err := el.Validate(); err != nil {
			t.Fatal(err)
		}
		if graph.CountComponents(graph.MustBuildCSR(el)) != 1 {
			t.Fatal("fixture should be connected")
		}
	}
	// Degenerate sizes.
	if len(Path(1, 1).Edges) != 0 || len(Cycle(2, 1).Edges) != 1 || len(Star(1, 1).Edges) != 0 {
		t.Fatal("degenerate fixtures wrong")
	}
}

func TestAllWeightsDistinct(t *testing.T) {
	for _, el := range []*graph.EdgeList{
		RoadNetwork(900, 2),
		RMAT(512, 4096, 2),
		ErdosRenyi(100, 1000, 2),
		ConnectedRandom(50, 100, 2),
	} {
		seen := make(map[uint64]bool, len(el.Edges))
		for _, e := range el.Edges {
			if seen[e.W] {
				t.Fatalf("duplicate weight %d", e.W)
			}
			seen[e.W] = true
		}
	}
}

func TestProfiles(t *testing.T) {
	if len(Profiles) != 6 {
		t.Fatalf("want 6 profiles, got %d", len(Profiles))
	}
	for _, p := range Profiles {
		el := p.Generate(0.05)
		if err := el.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if el.N < 16 {
			t.Fatalf("%s: too few vertices %d", p.Name, el.N)
		}
	}
	if _, err := ProfileByName("uk-2007"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("missing"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestProfileShapesMatchPaperTable2(t *testing.T) {
	// At a small scale, the road profile must still out-diameter the web
	// profiles and the web profiles must have much higher average degree.
	road, _ := ProfileByName("road_usa")
	web, _ := ProfileByName("arabic-2005")
	stRoad := graph.ComputeStats(graph.MustBuildCSR(road.Generate(0.1)))
	stWeb := graph.ComputeStats(graph.MustBuildCSR(web.Generate(0.1)))
	if stRoad.ApproxDiam <= stWeb.ApproxDiam {
		t.Fatalf("road diam %d <= web diam %d", stRoad.ApproxDiam, stWeb.ApproxDiam)
	}
	if stWeb.AvgDegree <= 4*stRoad.AvgDegree {
		t.Fatalf("web avg degree %.1f not ≫ road %.1f", stWeb.AvgDegree, stRoad.AvgDegree)
	}
}

// TestGeneratorsPackIDs: every generator, and every profile, packs each
// edge's index into the low bits of its weight, so the weight is the only
// record of an edge's id that the rest of the pipeline needs.
func TestGeneratorsPackIDs(t *testing.T) {
	graphs := map[string]*graph.EdgeList{
		"Grid2D":          Grid2D(12, 9, 0.3, 1),
		"RoadNetwork":     RoadNetwork(2500, 71),
		"RMAT":            RMAT(512, 4096, 2),
		"ErdosRenyi":      ErdosRenyi(300, 2000, 3),
		"ConnectedRandom": ConnectedRandom(300, 900, 4),
		"Path":            Path(100, 5),
		"Cycle":           Cycle(100, 6),
		"Star":            Star(100, 7),
		"WebGraph":        WebGraph(1000, 8000, 0.85, 8),
		"BarabasiAlbert":  BarabasiAlbert(500, 3, 9),
		"WattsStrogatz":   WattsStrogatz(500, 4, 0.1, 10),
		"BinaryTree":      BinaryTree(255, 11),
		"Complete":        Complete(40, 12),
	}
	for _, p := range Profiles {
		graphs["profile "+p.Name] = p.Generate(0.02)
	}
	const eidMask = graph.MaxEdges - 1
	for name, el := range graphs {
		if len(el.Edges) == 0 {
			t.Fatalf("%s: no edges", name)
		}
		for i, e := range el.Edges {
			if e.W&eidMask != uint64(i) {
				t.Fatalf("%s: edge %d weight %#x packs id %d", name, i, e.W, e.W&eidMask)
			}
		}
		if err := el.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
