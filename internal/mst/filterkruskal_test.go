package mst

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/testutil"
)

func TestFilterKruskalKnownGraph(t *testing.T) {
	el := knownGraph()
	f := FilterKruskal(el)
	if !Kruskal(el).Equal(f) {
		t.Fatalf("filter-kruskal forest=%+v", f)
	}
	if err := VerifyForest(el, f); err != nil {
		t.Fatal(err)
	}
}

func TestFilterKruskalMatchesKruskalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(150))
		m := rng.Intn(int(n) * 5)
		el := gen.ErdosRenyi(n, m, seed)
		return Kruskal(el).Equal(FilterKruskal(el))
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestFilterKruskalLargeRecursion(t *testing.T) {
	// Big enough to take the recursive path several levels deep.
	big := gen.WebGraph(4096, 60_000, 0.8, 17)
	if !Kruskal(big).Equal(FilterKruskal(big)) {
		t.Fatal("filter-kruskal disagrees on a large graph")
	}
	road := gen.RoadNetwork(2500, 19)
	if !Kruskal(road).Equal(FilterKruskal(road)) {
		t.Fatal("filter-kruskal disagrees on road network")
	}
}

func TestFilterKruskalDegenerate(t *testing.T) {
	empty := FilterKruskal(&graph.EdgeList{N: 0})
	if len(empty.EdgeIDs) != 0 || empty.Components != 0 {
		t.Fatalf("empty forest=%+v", empty)
	}
	loops := FilterKruskal(&graph.EdgeList{N: 2, Edges: []graph.Edge{
		{U: 0, V: 0, W: graph.MakeWeight(1, 0)},
		{U: 1, V: 1, W: graph.MakeWeight(2, 1)},
	}})
	if len(loops.EdgeIDs) != 0 || loops.Components != 2 {
		t.Fatalf("loops forest=%+v", loops)
	}
}
