package merge

import (
	"reflect"
	"slices"
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

// TestRelabelWindowMatchesRelabel: the walk over a window's arcs meets
// exactly the edges the per-edge reference keeps of the range's extracted
// edge list, in the same order, and Relabel keeps the lightest of each
// pair in first-arrival order (checkPairMin). The walk over NewLocal of
// that list gives the same edges when it writes into the list's own
// storage, as a later iteration's reduction does. After a kernel run on
// the window, the result has exactly the capacity it needs.
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
		stream := relabelList(edges, pf)
		win := boruvka.NewWindow(el, deg, lo, hi)
		if walk := relabelReference(win, parent, ghost); !reflect.DeepEqual(walk, stream) {
			t.Fatalf("[%d,%d): window walk meets %d edges, reference keeps %d", lo, hi, len(walk), len(stream))
		}
		got, w := Relabel(nil, win, parent, ghost)
		checkPairMin(t, got, w, stream)
		var ids []int32
		for v := lo; v < hi; v++ {
			ids = append(ids, v)
		}
		l, err := boruvka.NewLocal(ids, edges)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := Relabel(edges, l, parent, ghost); !slices.Equal(again, got) {
			t.Fatalf("[%d,%d): NewLocal into its own list keeps %d edges, the window %d", lo, hi, len(again), len(got))
		}
		// After a kernel run, every live arc of the window survives its
		// parents, and heads outside keep their ids, so the result is
		// sized exactly.
		res := boruvka.Run(win, boruvka.DefaultOptions())
		keep := func(v int32) int32 { return v }
		ran, w := Relabel(nil, win, res.Parent, keep)
		stream = relabelReference(win, res.Parent, keep)
		checkPairMin(t, ran, w, stream)
		if cap(ran) != len(stream) {
			t.Fatalf("[%d,%d): %d relabelled edges after a run, result capacity %d", lo, hi, len(stream), cap(ran))
		}
	}
}
