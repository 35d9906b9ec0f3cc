package partition

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/testutil"
)

func testComm() cost.CommModel { return cost.CommModel{Latency: 1e-6, Bandwidth: 1e9} }

func TestBalancedBoundsUniform(t *testing.T) {
	deg := make([]int64, 100)
	for i := range deg {
		deg[i] = 4
	}
	b := BalancedBounds(deg, 4)
	want := []int32{0, 25, 50, 75, 100}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds=%v want %v", b, want)
		}
	}
}

func TestBalancedBoundsSkewed(t *testing.T) {
	// One hub with degree 1000, everyone else degree 1: the hub's
	// partition should be small in vertex count.
	deg := make([]int64, 100)
	for i := range deg {
		deg[i] = 1
	}
	deg[0] = 1000
	b := BalancedBounds(deg, 4)
	if b[0] != 0 || b[4] != 100 {
		t.Fatalf("bounds=%v", b)
	}
	// Partition 0 contains the hub and must be tiny.
	if b[1] > 5 {
		t.Fatalf("hub partition spans %d vertices: %v", b[1], b)
	}
	// Every vertex is covered exactly once, boundaries monotone.
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatalf("non-monotone bounds %v", b)
		}
	}
}

func TestBalancedBoundsMoreRanksThanVertices(t *testing.T) {
	b := BalancedBounds([]int64{3, 3}, 5)
	if b[0] != 0 || b[len(b)-1] != 2 {
		t.Fatalf("bounds=%v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatalf("non-monotone %v", b)
		}
	}
}

func TestOwnerOfInverseOfBounds(t *testing.T) {
	f := func(seed int64) bool {
		n := 50
		deg := make([]int64, n)
		for i := range deg {
			deg[i] = int64(1 + (int(seed)+i*7)%13)
		}
		p := 1 + int(uint64(seed)%7)
		b := BalancedBounds(deg, p)
		for v := int32(0); v < int32(n); v++ {
			o := OwnerOf(b, v)
			if o < 0 || o >= p || v < b[o] || v >= b[o+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 50)); err != nil {
		t.Fatal(err)
	}
}

// readWindow is the read every job kind makes: the degree-balanced bounds
// and the window of the rank's range.
func readWindow(r *cluster.Rank, el *graph.EdgeList) ([]int32, *boruvka.Local, cost.Work) {
	bounds, deg, w := ReadBounds(r, el, ByDegree, nil)
	return bounds, boruvka.NewWindow(el, deg, bounds[r.ID()], bounds[r.ID()+1]), w
}

func TestReadCoversAllEdges(t *testing.T) {
	el := gen.RMAT(512, 4096, 41)
	for _, p := range []int{1, 2, 4, 7} {
		c := cluster.New(p, testComm())
		counts := make([]map[int32]int, p)
		bounds := make([][]int32, p)
		_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
			b, win, w := readWindow(r, el)
			if w.VerticesProcessed == 0 && el.N > 0 {
				return fmt.Errorf("no partition work reported")
			}
			m := map[int32]int{}
			for u := 0; u < win.N(); u++ {
				_, ws := win.Arcs(u)
				for _, w := range ws {
					m[graph.EdgeID(w)] = 1
				}
			}
			if int64(len(m)) != win.NumEdges {
				return fmt.Errorf("window holds %d distinct edges, NumEdges is %d", len(m), win.NumEdges)
			}
			counts[r.ID()], bounds[r.ID()] = m, b
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range bounds {
			if !slices.Equal(bounds[i], bounds[0]) {
				t.Fatalf("p=%d: rank %d bounds %v, rank 0 has %v", p, i, bounds[i], bounds[0])
			}
		}
		// Every edge lies in one window (internal) or two (cut).
		total := map[int32]int{}
		for _, m := range counts {
			for id, c := range m {
				total[id] += c
			}
		}
		for i := range el.Edges {
			c := total[int32(i)]
			if c != 1 && c != 2 {
				t.Fatalf("p=%d: edge %d appears %d times", p, i, c)
			}
		}
		if len(total) != len(el.Edges) {
			t.Fatalf("p=%d: %d distinct edges, want %d", p, len(total), len(el.Edges))
		}
	}
}

func TestReadBalancesEdges(t *testing.T) {
	el := gen.RMAT(1024, 16384, 43)
	const p = 8
	c := cluster.New(p, testComm())
	sizes := make([]int64, p)
	_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		_, win, _ := readWindow(r, el)
		sizes[r.ID()] = win.NumEdges
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Degree-balanced 1D partitioning should keep imbalance moderate even
	// on a power-law graph (hub partitions shrink in vertex count).
	if lo, hi := slices.Min(sizes), slices.Max(sizes); lo == 0 || float64(hi)/float64(lo) > 3.5 {
		t.Fatalf("edge imbalance too high: sizes=%v", sizes)
	}
}

// csrBounds derives the bounds the way the read did from the CSR: the
// degree vector is graph.CSR.Degree of every vertex.
func csrBounds(g *graph.CSR, p int, strat Strategy, speeds []float64) []int32 {
	deg := make([]int64, g.N)
	for v := range deg {
		deg[v] = g.Degree(int32(v))
	}
	switch {
	case strat == ByVertex:
		b := make([]int32, p+1)
		for i := range b {
			b[i] = int32(i * int(g.N) / p)
		}
		return b
	case len(speeds) == p:
		return WeightedBounds(deg, speeds)
	default:
		return BalancedBounds(deg, p)
	}
}

// TestReadBoundsMatchesCSRDegrees: the degrees counted from the ranks'
// edge chunks and allreduced are the CSR degrees, so the bounds equal
// those the CSR gives, for degree-balanced, equal-vertex and
// speed-weighted bounds — with more ranks than vertices and fewer edges
// than ranks too. Every rank still charges its provisional slice.
func TestReadBoundsMatchesCSRDegrees(t *testing.T) {
	seed := testutil.Seed(t, 59)
	loops := gen.RMAT(64, 300, seed)
	for i := int32(0); i < 64; i += 5 {
		id := int32(len(loops.Edges))
		loops.Edges = append(loops.Edges, graph.Edge{U: i, V: i, W: graph.MakeWeight(uint16(i), id)})
	}
	for _, el := range []*graph.EdgeList{
		gen.RMAT(512, 4096, seed+1),
		loops,
		gen.ErdosRenyi(5, 3, seed+2), // m < p, p > n
		{N: 4},
	} {
		g := graph.MustBuildCSR(el)
		n := int(el.N)
		for _, p := range []int{1, 2, 3, 4, 7, 16} {
			speeds := make([]float64, p)
			for i := range speeds {
				speeds[i] = float64(1 + i%3)
			}
			for _, tc := range []struct {
				name   string
				strat  Strategy
				speeds []float64
			}{{"degree", ByDegree, nil}, {"vertex", ByVertex, nil}, {"speeds", ByDegree, speeds}} {
				want := csrBounds(g, p, tc.strat, tc.speeds)
				c := cluster.New(p, testComm())
				_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
					bounds, deg, w := ReadBounds(r, el, tc.strat, tc.speeds)
					if !slices.Equal(bounds, want) {
						return fmt.Errorf("bounds %v, CSR degrees give %v", bounds, want)
					}
					for v := range deg {
						if deg[v] != g.Degree(int32(v)) {
							return fmt.Errorf("degree of %d is %d, CSR has %d", v, deg[v], g.Degree(int32(v)))
						}
					}
					slice := int64((r.ID()+1)*n/p - r.ID()*n/p)
					if w != (cost.Work{VerticesProcessed: slice}) {
						return fmt.Errorf("rank %d charged %+v, want %d vertices", r.ID(), w, slice)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("N=%d m=%d p=%d %s: %v", n, len(el.Edges), p, tc.name, err)
				}
			}
		}
	}
}
