package merge

import (
	"reflect"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// TestRelabelWindowMatchesRelabel: the fused walk over a window's arcs
// emits exactly what Relabel keeps of the range's extracted edge list, in
// the same order.
func TestRelabelWindowMatchesRelabel(t *testing.T) {
	el := gen.RMAT(256, 2048, 29) // hubs, self-loops and parallel edges
	g := graph.MustBuildCSR(el)
	deg := el.Degrees()
	for _, r := range [][2]int32{{0, 256}, {0, 8}, {60, 200}, {255, 256}, {100, 100}} {
		lo, hi := r[0], r[1]
		// Owned vertices fold pairwise into components; ghosts fold by
		// four, so internal, cut and parallel cases all occur.
		parent := make([]int32, hi-lo)
		for i := range parent {
			parent[i] = max(lo, (lo+int32(i))&^1)
		}
		ghost := func(v int32) int32 { return v &^ 3 }
		pf := func(v int32) int32 {
			if v >= lo && v < hi {
				return parent[v-lo]
			}
			return ghost(v)
		}
		var edges []wire.WEdge
		for _, e := range graph.VertexRangeSubgraph(g, lo, hi) {
			edges = append(edges, wire.WEdge{U: e.U, V: e.V, W: e.W, ID: e.ID})
		}
		want, _, _ := Relabel(edges, pf)
		got := RelabelWindow(boruvka.NewWindow(el, deg, lo, hi), parent, ghost)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("[%d,%d): window emits %d edges, Relabel keeps %d", lo, hi, len(got), len(want))
		}
	}
}
