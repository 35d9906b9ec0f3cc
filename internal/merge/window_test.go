package merge

import (
	"reflect"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
)

// relabelList is the per-edge reference for Relabel: every edge of the
// list through pf, self edges dropped, in list order.
func relabelList(edges []graph.Edge, pf func(int32) int32) []graph.Edge {
	var out []graph.Edge
	for _, e := range edges {
		e.U, e.V = pf(e.U), pf(e.V)
		if e.U != e.V {
			out = append(out, e)
		}
	}
	return out
}

// TestRelabelWindowMatchesRelabel: the fused walk over a window's arcs
// emits exactly what the per-edge reference keeps of the range's
// extracted edge list, in the same order, into a slice of exactly that
// size. So does the walk over NewLocal
// of that list when it appends into the list's own storage, as a later
// iteration's reduction does.
func TestRelabelWindowMatchesRelabel(t *testing.T) {
	el := gen.RMAT(256, 2048, 29) // hubs, self-loops and parallel edges
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
		// The range's edge list in the window's order: vertex-major, each
		// vertex's edges in ascending id, oriented from the inside end; an
		// internal edge appears once, from its smaller end.
		var edges []graph.Edge
		for u := lo; u < hi; u++ {
			for _, e := range el.Edges {
				v := e.V
				switch {
				case e.U == u:
				case e.V == u:
					v = e.U
				default:
					continue
				}
				if v >= lo && v < hi && u > v {
					continue
				}
				edges = append(edges, graph.Edge{U: u, V: v, W: e.W})
			}
		}
		want := relabelList(edges, pf)
		got := Relabel(nil, boruvka.NewWindow(el, deg, lo, hi), parent, ghost)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("[%d,%d): window emits %d edges, reference keeps %d", lo, hi, len(got), len(want))
		}
		if cap(got) != len(got) { // no ghost maps into the range, so the count is exact
			t.Fatalf("[%d,%d): %d edges relabelled into capacity %d", lo, hi, len(got), cap(got))
		}
		var ids []int32
		for v := lo; v < hi; v++ {
			ids = append(ids, v)
		}
		l, err := boruvka.NewLocal(ids, edges)
		if err != nil {
			t.Fatal(err)
		}
		if got := Relabel(edges, l, parent, ghost); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("[%d,%d): NewLocal into its own list emits %d edges, reference keeps %d", lo, hi, len(got), len(want))
		}
	}
}
