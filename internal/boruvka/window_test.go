package boruvka

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/partition"
	"mndmst/internal/testutil"
)

// messyGraph is a seeded RMAT graph (power-law hubs, some self-loops and
// parallel edges) with extra self-loops and parallel copies of random
// edges appended, so most windows see all three.
func messyGraph(n int32, m int, seed int64) *graph.EdgeList {
	el := gen.RMAT(n, m, seed)
	rng := rand.New(rand.NewSource(seed))
	base := len(el.Edges)
	for i := 0; i < base/4; i++ {
		e := el.Edges[rng.Intn(base)]
		if i%2 == 0 {
			e.V = e.U
		}
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: e.U, V: e.V, ID: id, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	return el
}

// windowRanges returns every range of BalancedBounds over g for each
// rank count, P > N included.
func windowRanges(g *graph.CSR) [][2]int32 {
	deg := make([]int64, g.N)
	for v := range deg {
		deg[v] = g.Degree(int32(v))
	}
	var out [][2]int32
	for _, p := range []int{1, 2, 3, 4, 16} {
		b := partition.BalancedBounds(deg, p)
		for i := 0; i < p; i++ {
			out = append(out, [2]int32{b[i], b[i+1]})
		}
	}
	return out
}

// arcKey is one arc of a view with its head named globally (-1 external).
type arcKey struct {
	head, eid int32
	w         uint64
}

// arcSets lists each local vertex's arcs, sorted.
func arcSets(l *Local) [][]arcKey {
	out := make([][]arcKey, l.N())
	for u := range out {
		for a := l.off[u]; a < l.off[u+1]; a++ {
			head := int32(-1)
			if l.dst[a] >= 0 {
				head = l.IDs[l.dst[a]]
			}
			out[u] = append(out[u], arcKey{head, l.eid[a], l.w[a]})
		}
		slices.SortFunc(out[u], func(x, y arcKey) int {
			if x.eid != y.eid {
				return int(x.eid - y.eid)
			}
			return int(x.head - y.head)
		})
	}
	return out
}

// referenceLocal builds the view of [lo, hi) the list way.
func referenceLocal(t *testing.T, g *graph.CSR, lo, hi int32) (*Local, []graph.Edge) {
	t.Helper()
	edges := graph.VertexRangeSubgraph(g, lo, hi)
	ids := make([]int32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		ids = append(ids, v)
	}
	l, err := NewLocal(ids, toWEdges(edges))
	if err != nil {
		t.Fatal(err)
	}
	return l, edges
}

// TestNewWindowMatchesVertexRangeSubgraph checks NewWindow against
// NewLocal over graph.VertexRangeSubgraph: the same arcs per vertex and
// the same edge and cut-edge counts, on every balanced range.
func TestNewWindowMatchesVertexRangeSubgraph(t *testing.T) {
	seed := testutil.Seed(t, 61)
	for _, el := range []*graph.EdgeList{
		messyGraph(300, 2400, seed),
		messyGraph(10, 40, seed+1), // P=16 leaves empty ranges
		gen.Star(50, seed+2),
		{N: 3},
	} {
		g := graph.MustBuildCSR(el)
		for _, r := range windowRanges(g) {
			lo, hi := r[0], r[1]
			win := NewWindow(g, lo, hi)
			ref, edges := referenceLocal(t, g, lo, hi)
			var cut int64
			for _, e := range edges {
				if (e.U >= lo && e.U < hi) != (e.V >= lo && e.V < hi) {
					cut++
				}
			}
			where := fmt.Sprintf("N=%d [%d,%d)", g.N, lo, hi)
			if win.NumEdges != int64(len(edges)) || ref.NumEdges != int64(len(edges)) {
				t.Fatalf("%s: NumEdges window %d, list %d, want %d", where, win.NumEdges, ref.NumEdges, len(edges))
			}
			if win.NumCut != cut || ref.NumCut != cut {
				t.Fatalf("%s: NumCut window %d, list %d, want %d", where, win.NumCut, ref.NumCut, cut)
			}
			if !slices.Equal(win.IDs, ref.IDs) {
				t.Fatalf("%s: ids %v vs %v", where, win.IDs, ref.IDs)
			}
			if !reflect.DeepEqual(arcSets(win), arcSets(ref)) {
				t.Fatalf("%s: per-vertex arcs differ", where)
			}
			for u := 0; u < win.N(); u++ {
				if win.Border(u) != ref.Border(u) {
					t.Fatalf("%s: Border(%d) differs", where, u)
				}
			}
		}
	}
}

// TestWindowKernelMatchesList runs the kernel on both views of every
// balanced range under each exception condition, with and without
// contraction: the results must be identical.
func TestWindowKernelMatchesList(t *testing.T) {
	seed := testutil.Seed(t, 67)
	for _, el := range []*graph.EdgeList{
		messyGraph(400, 3200, seed),
		messyGraph(10, 40, seed+1),
	} {
		g := graph.MustBuildCSR(el)
		for _, r := range windowRanges(g) {
			win := NewWindow(g, r[0], r[1])
			ref, _ := referenceLocal(t, g, r[0], r[1])
			for _, excpt := range []ExceptionCond{ExcptNone, ExcptBorderVertex, ExcptBorderEdge} {
				for _, contract := range []bool{false, true} {
					opt := Options{Excpt: excpt, DataDriven: true, Contract: contract}
					got, want := Run(win, opt), Run(ref, opt)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("N=%d [%d,%d) excpt=%d contract=%v: window %+v, list %+v",
							g.N, r[0], r[1], excpt, contract, got, want)
					}
				}
			}
		}
	}
}
