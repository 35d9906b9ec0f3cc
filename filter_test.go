package mndmst

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mndmst/internal/core"
	"mndmst/internal/hypar"
)

// atDensity returns a graph on g's vertices with exactly m edges: g's
// edges in order, truncated, or repeated as parallel copies with fresh
// weights drawn from seed until there are m.
func atDensity(t testing.TB, g *Graph, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = g.EdgeAt(i % g.NumEdges())
		if i >= g.NumEdges() {
			edges[i].Weight = uint16(rng.Intn(1 << 16))
		}
	}
	out, err := NewGraph(int32(g.NumVertices()), edges)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// multigraph builds n vertices and m edges with self-loops, parallel
// edges and only three distinct input weights, so every order between
// two edges of one weight comes from the edge-id tie-break.
func multigraph(t testing.TB, n int32, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		u := rng.Int31n(n)
		v := rng.Int31n(n)
		switch rng.Intn(8) {
		case 0:
			v = u // a self-loop
		case 1:
			if i > 0 {
				u, v = edges[i-1].V, edges[i-1].U // a parallel edge
			}
		}
		edges[i] = Edge{U: u, V: v, Weight: uint16(1 + rng.Intn(3))}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameForest fails t unless res carries exactly seq's edge ids.
func sameForest(t testing.TB, g *Graph, res *Result) {
	t.Helper()
	seq := FindMSFSequential(g)
	if !reflect.DeepEqual(res.EdgeIDs, seq.EdgeIDs) || res.TotalWeight != seq.TotalWeight || res.Components != seq.Components {
		t.Fatalf("forest differs from FindMSFSequential: %d edges, weight %d, %d components; want %d, %d, %d",
			len(res.EdgeIDs), res.TotalWeight, res.Components, len(seq.EdgeIDs), seq.TotalWeight, seq.Components)
	}
}

// TestFindMSFFilterMatchesSequential runs the public pipeline on every
// generator family and on a hand-built multigraph, on both sides of the
// filter rule (m = 5n − 1 runs the paper's pipeline, m = 5n filters), and
// checks each forest against FindMSFSequential's edge ids.
func TestFindMSFFilterMatchesSequential(t *testing.T) {
	const n = 600
	families := []struct {
		name string
		g    *Graph
	}{
		{"web", GenerateWebGraph(n, 8*n, 0.8, 11)},
		{"road", GenerateRoadNetwork(n, 12)},
		{"rmat", GenerateRMAT(n, 8*n, 13)},
		{"barabasi-albert", GenerateBarabasiAlbert(n, 8, 14)},
		{"watts-strogatz", GenerateWattsStrogatz(n, 10, 0.1, 15)},
		{"multigraph", multigraph(t, n, 6*n, 16)},
	}
	for _, fam := range families {
		nv := fam.g.NumVertices()
		for _, m := range []int{5*nv - 1, 5 * nv} {
			g := atDensity(t, fam.g, m, 17)
			for _, p := range []int{1, 2, 4, 16} {
				t.Run(fmt.Sprintf("%s/m=%d/p=%d", fam.name, m, p), func(t *testing.T) {
					res, err := FindMSF(g, Options{Nodes: p})
					if err != nil {
						t.Fatal(err)
					}
					sameForest(t, g, res)
				})
			}
		}
	}
}

// TestFindMSFRuleOffMatchesPaperPipeline pins the path where the rule does
// not fire: on a road graph (m ≈ 1.2n) and on a web graph one edge short
// of 5n, the public FindMSF Result equals a core.Run with
// hypar.DefaultConfig in every field but the measured wall times. At
// m = 5n the same web graph filters, and the two differ.
func TestFindMSFRuleOffMatchesPaperPipeline(t *testing.T) {
	road := GenerateRoadNetwork(4000, 31)
	web := GenerateWebGraph(500, 4000, 0.8, 21)
	for _, tc := range []struct {
		name    string
		g       *Graph
		p       int
		filters bool
	}{
		{"road/p1", road, 1, false},
		{"road/p4", road, 4, false},
		{"road/p16", road, 16, false},
		{"web/m=5n-1/p4", atDensity(t, web, 5*500-1, 22), 4, false},
		{"web/m=5n/p4", atDensity(t, web, 5*500, 22), 4, true},
	} {
		pub, err := FindMSF(tc.g, Options{Nodes: tc.p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(context.Background(), tc.g.el, tc.p, AMDCluster.model(), hypar.DefaultConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		paper := resultFromForest(res.Forest, res.Report)
		for _, r := range []*Result{pub, paper} {
			r.WallSeconds, r.Trace = 0, nil
			for i := range r.Phases {
				r.Phases[i].Wall = 0
			}
		}
		if same := reflect.DeepEqual(pub, paper); same == tc.filters {
			t.Fatalf("%s: public result equals the paper pipeline's: %t, want %t:\n%+v\n%+v",
				tc.name, same, !tc.filters, pub, paper)
		}
	}
}

// FuzzFilteredForest checks the public pipeline's forest against
// FindMSFSequential on small random multigraphs dense enough that the
// filter fires, at 1 to 5 ranks.
func FuzzFilteredForest(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(2))
	f.Add(int64(7), uint8(3), uint8(0), uint8(5))
	f.Add(int64(42), uint8(64), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, extra, p uint8) {
		nv := 1 + int32(n)%64
		m := 5*int(nv) + int(extra)%(4*int(nv))
		rng := rand.New(rand.NewSource(seed))
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{U: rng.Int31n(nv), V: rng.Int31n(nv), Weight: uint16(rng.Intn(8))}
		}
		g, err := NewGraph(nv, edges)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FindMSF(g, Options{Nodes: 1 + int(p)%5})
		if err != nil {
			t.Fatal(err)
		}
		sameForest(t, g, res)
	})
}
