package apps

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
)

func amd() cost.Machine { return cost.AMDCluster() }

// seqBFS is the reference BFS.
func seqBFS(g *graph.CSR, source int32) []int32 {
	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	cur := []int32{source}
	for d := int32(1); len(cur) > 0; d++ {
		var next []int32
		for _, u := range cur {
			lo, hi := g.Arcs(u)
			for a := lo; a < hi; a++ {
				v := g.Dst[a]
				if dist[v] < 0 {
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		cur = next
	}
	return dist
}

func TestBFSMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
		src  int32
	}{
		{"road", gen.RoadNetwork(900, 41), 0},
		{"web", gen.WebGraph(1024, 8192, 0.85, 42), 17},
		{"path", gen.Path(200, 43), 100},
		{"disconnected", &graph.EdgeList{N: 10, Edges: []graph.Edge{
			{U: 0, V: 1, W: graph.MakeWeight(1, 0)},
			{U: 5, V: 6, W: graph.MakeWeight(2, 1)},
		}}, 0},
	} {
		want := seqBFS(graph.MustBuildCSR(tc.el), tc.src)
		for _, p := range []int{1, 3, 4} {
			res, err := BFS(context.Background(), tc.el, p, amd(), tc.src)
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("%s p=%d: dist[%d]=%d want %d", tc.name, p, v, res.Dist[v], want[v])
				}
			}
			if res.Levels < 1 {
				t.Fatalf("%s: levels=%d", tc.name, res.Levels)
			}
		}
	}
}

func TestBFSSourceValidation(t *testing.T) {
	el := gen.Path(5, 1)
	if _, err := BFS(context.Background(), el, 2, amd(), -1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := BFS(context.Background(), el, 2, amd(), 5); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestBFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(3 + rng.Intn(120))
		el := gen.ErdosRenyi(n, rng.Intn(int(n)*3), seed)
		src := rng.Int31n(n)
		p := 1 + rng.Intn(5)
		res, err := BFS(context.Background(), el, p, amd(), src)
		if err != nil {
			return false
		}
		want := seqBFS(graph.MustBuildCSR(el), src)
		for v := range want {
			if res.Dist[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSCommunicationAccounted(t *testing.T) {
	el := gen.WebGraph(2048, 16384, 0.7, 45)
	res, err := BFS(context.Background(), el, 8, amd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalMsgs() == 0 || res.Report.CommTime() <= 0 {
		t.Fatal("no communication accounted for a multi-rank BFS")
	}
}

func TestConnectedComponentsMatchesBFSLabels(t *testing.T) {
	el := &graph.EdgeList{N: 8, Edges: []graph.Edge{
		{U: 0, V: 1, W: graph.MakeWeight(1, 0)},
		{U: 1, V: 2, W: graph.MakeWeight(2, 1)},
		{U: 4, V: 5, W: graph.MakeWeight(3, 2)},
	}}
	res, err := ConnectedComponents(context.Background(), el, 3, amd(), hypar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 5 { // {0,1,2}, {4,5}, {3}, {6}, {7}
		t.Fatalf("components=%d", res.Components)
	}
	want := []int32{0, 0, 0, 3, 4, 4, 6, 7}
	for v, l := range res.Label {
		if l != want[v] {
			t.Fatalf("label[%d]=%d want %d", v, l, want[v])
		}
	}
}

func TestConnectedComponentsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(100))
		el := gen.ErdosRenyi(n, rng.Intn(int(n)*2), seed)
		p := 1 + rng.Intn(6)
		res, err := ConnectedComponents(context.Background(), el, p, amd(), hypar.DefaultConfig())
		if err != nil {
			return false
		}
		// Oracle: BFS from every unvisited vertex.
		g := graph.MustBuildCSR(el)
		oracle := make([]int32, n)
		for i := range oracle {
			oracle[i] = -1
		}
		comps := 0
		for s := int32(0); s < n; s++ {
			if oracle[s] >= 0 {
				continue
			}
			comps++
			for v, d := range seqBFS(g, s) {
				if d >= 0 && oracle[v] < 0 {
					oracle[v] = s
				}
			}
		}
		if res.Components != comps {
			return false
		}
		for v := int32(0); v < n; v++ {
			if res.Label[v] != oracle[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// seqSSSP is the reference Dijkstra.
func seqSSSP(el *graph.EdgeList, source int32) []uint64 {
	g := graph.MustBuildCSR(el)
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[source] = 0
	done := make([]bool, g.N)
	for {
		u := int32(-1)
		best := Unreachable
		for v := int32(0); v < g.N; v++ {
			if !done[v] && dist[v] < best {
				best, u = dist[v], v
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		lo, hi := g.Arcs(u)
		for a := lo; a < hi; a++ {
			if cand := dist[u] + g.W[a]; cand < dist[g.Dst[a]] {
				dist[g.Dst[a]] = cand
			}
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
		src  int32
	}{
		{"web", gen.WebGraph(512, 4096, 0.85, 201), 7},
		{"road", gen.RoadNetwork(400, 202), 0},
		{"disconnected", &graph.EdgeList{N: 6, Edges: []graph.Edge{
			{U: 0, V: 1, W: graph.MakeWeight(1, 0)},
			{U: 3, V: 4, W: graph.MakeWeight(2, 1)},
		}}, 0},
	} {
		want := seqSSSP(tc.el, tc.src)
		for _, p := range []int{1, 3} {
			res, err := SSSP(context.Background(), tc.el, p, amd(), tc.src)
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("%s p=%d: dist[%d]=%d want %d", tc.name, p, v, res.Dist[v], want[v])
				}
			}
		}
	}
}

func TestSSSPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(3 + rng.Intn(60))
		el := gen.ErdosRenyi(n, rng.Intn(int(n)*3), seed)
		src := rng.Int31n(n)
		p := 1 + rng.Intn(4)
		res, err := SSSP(context.Background(), el, p, amd(), src)
		if err != nil {
			return false
		}
		want := seqSSSP(el, src)
		for v := range want {
			if res.Dist[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPBadSource(t *testing.T) {
	if _, err := SSSP(context.Background(), gen.Path(4, 1), 2, amd(), 9); err == nil {
		t.Fatal("bad source accepted")
	}
}

// seqPageRank is the single-machine reference power iteration.
func seqPageRank(el *graph.EdgeList, damping, tol float64, maxIter int) []float64 {
	g := graph.MustBuildCSR(el)
	n := int(g.N)
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < maxIter; it++ {
		incoming := make([]float64, n)
		for v := 0; v < n; v++ {
			deg := g.Degree(int32(v))
			if deg == 0 {
				continue
			}
			share := rank[v] / float64(deg)
			lo, hi := g.Arcs(int32(v))
			for a := lo; a < hi; a++ {
				incoming[g.Dst[a]] += share
			}
		}
		var delta float64
		for v := 0; v < n; v++ {
			nr := (1-damping)/float64(n) + damping*incoming[v]
			delta += absf(nr - rank[v])
			rank[v] = nr
		}
		if delta < tol {
			break
		}
	}
	return rank
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestPageRankMatchesSequential(t *testing.T) {
	el := gen.WebGraph(512, 4096, 0.8, 203)
	want := seqPageRank(el, 0.85, 1e-9, 40)
	for _, p := range []int{1, 4} {
		res, err := PageRank(context.Background(), el, p, amd(), 0.85, 1e-9, 40)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for v := range want {
			if absf(res.Ranks[v]-want[v]) > 1e-9 {
				t.Fatalf("p=%d: rank[%d]=%g want %g", p, v, res.Ranks[v], want[v])
			}
		}
		if res.Iterations < 2 {
			t.Fatalf("iterations=%d", res.Iterations)
		}
	}
}

func TestPageRankSumsToOneOnConnectedGraph(t *testing.T) {
	el := gen.ConnectedRandom(300, 1500, 205)
	res, err := PageRank(context.Background(), el, 3, amd(), 0.85, 1e-10, 60)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, rv := range res.Ranks {
		sum += rv
	}
	if absf(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %g", sum)
	}
}

func TestPageRankBadDamping(t *testing.T) {
	el := gen.Path(4, 1)
	if _, err := PageRank(context.Background(), el, 2, amd(), 1.5, 1e-6, 10); err == nil {
		t.Fatal("bad damping accepted")
	}
	if _, err := PageRank(context.Background(), el, 2, amd(), 0, 1e-6, 10); err == nil {
		t.Fatal("zero damping accepted")
	}
}

func TestColoringProper(t *testing.T) {
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
	}{
		{"web", gen.WebGraph(1024, 8192, 0.8, 211)},
		{"road", gen.RoadNetwork(900, 212)},
		{"complete", gen.Complete(20, 213)},
		{"star", gen.Star(200, 214)},
	} {
		for _, p := range []int{1, 4} {
			res, err := Coloring(context.Background(), tc.el, p, amd(), 7)
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			// Proper: no edge joins two same-colored endpoints.
			for _, e := range tc.el.Edges {
				if e.U != e.V && res.Color[e.U] == res.Color[e.V] {
					t.Fatalf("%s p=%d: edge %d-%d both color %d", tc.name, p, e.U, e.V, res.Color[e.U])
				}
			}
			for v, c := range res.Color {
				if c < 0 || int(c) >= res.Colors {
					t.Fatalf("%s p=%d: color[%d]=%d of %d", tc.name, p, v, c, res.Colors)
				}
			}
		}
	}
}

func TestColoringCompleteGraphNeedsNColors(t *testing.T) {
	el := gen.Complete(12, 215)
	res, err := Coloring(context.Background(), el, 3, amd(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Colors != 12 {
		t.Fatalf("K12 colored with %d colors", res.Colors)
	}
}

func TestColoringDeterministicAcrossRankCounts(t *testing.T) {
	el := gen.WebGraph(512, 4096, 0.8, 217)
	a, err := Coloring(context.Background(), el, 1, amd(), 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Coloring(context.Background(), el, 5, amd(), 9)
	if err != nil {
		t.Fatal(err)
	}
	// Jones–Plassmann with fixed priorities is independent of the
	// partitioning: identical colors at any rank count.
	for v := range a.Color {
		if a.Color[v] != b.Color[v] {
			t.Fatalf("color[%d] differs across rank counts: %d vs %d", v, a.Color[v], b.Color[v])
		}
	}
}

func TestColoringProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(120))
		el := gen.ErdosRenyi(n, rng.Intn(int(n)*4), seed)
		p := 1 + rng.Intn(5)
		res, err := Coloring(context.Background(), el, p, amd(), seed)
		if err != nil {
			return false
		}
		for _, e := range el.Edges {
			if e.U != e.V && res.Color[e.U] == res.Color[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
