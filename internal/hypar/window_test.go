package hypar

import (
	"fmt"
	"reflect"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
)

// viewRun is what indComp and the merge-phase reduction produce over one
// view: the indComp result, the reduced edges and the simulated seconds
// charged to the rank.
type viewRun struct {
	res     *IndResult
	reduced []graph.Edge
	secs    float64
}

// runView runs IndComp and then Reduce (into dst, with ghost as the
// parent function of the external heads) over v, on a node with gpus
// accelerators.
func runView(t *testing.T, gpus int, v *boruvka.Local, dst []graph.Edge, ghost func(int32) int32) viewRun {
	t.Helper()
	var o viewRun
	onRank(t, func(rt *Runtime) error {
		if gpus == 0 {
			rt.Cfg.GPUShare = 0
		}
		for len(rt.GPUs) < gpus {
			rt.GPUs = append(rt.GPUs, rt.GPUs[0])
		}
		var err error
		if o.res, err = rt.IndComp(v); err != nil {
			return err
		}
		o.reduced = rt.Reduce(dst, v, o.res.Parent, ghost)
		o.secs = rt.R.ComputeTime()
		return nil
	})
	return o
}

// rangeList returns the ids of [lo, hi) and the edges of el with an
// endpoint in it, in edge order, with every vertex renamed by name.
func rangeList(el *graph.EdgeList, lo, hi int32, name func(int32) int32) ([]int32, []graph.Edge) {
	var ids []int32
	for v := lo; v < hi; v++ {
		ids = append(ids, name(v))
	}
	var edges []graph.Edge
	for _, e := range el.Edges {
		if e.U >= lo && e.U < hi || e.V >= lo && e.V < hi {
			edges = append(edges, graph.Edge{U: name(e.U), V: name(e.V), W: e.W})
		}
	}
	return ids, edges
}

// TestIndCompWindowMatchesList: indComp and the merge-phase reduction over
// a window give the same result, and charge the same simulated time, as
// over NewLocal of the range's extracted edge list (reducing into that
// list's own storage) — on the CPU alone and split across one or three
// accelerators. A later-iteration view, whose component ids are scattered
// over the id space with ghost heads between them, gives the window's
// result under the same renaming.
func TestIndCompWindowMatchesList(t *testing.T) {
	el := gen.RMAT(1024, 12_000, 17)
	deg := el.Degrees()
	// ghost stands in for remote deltas: it folds every outside vertex
	// onto a neighbour so some cut edges become parallel.
	ghost := func(v int32) int32 { return v &^ 1 }
	// scatter renames vertices to sparse, order-preserving component ids.
	scatter := func(v int32) int32 { return v*v + v + 7 }
	unscatter := make(map[int32]int32, el.N)
	for v := range el.N {
		unscatter[scatter(v)] = v
	}
	scatterGhost := func(c int32) int32 { return scatter(ghost(unscatter[c])) }
	scatterRun := func(o viewRun) viewRun {
		res := *o.res
		res.Parent = make([]int32, len(o.res.Parent))
		for i, c := range o.res.Parent {
			res.Parent[i] = scatter(c)
		}
		var reduced []graph.Edge
		for _, e := range o.reduced {
			e.U, e.V = scatter(e.U), scatter(e.V)
			reduced = append(reduced, e)
		}
		return viewRun{res: &res, reduced: reduced, secs: o.secs}
	}
	identity := func(v int32) int32 { return v }
	for _, gpus := range []int{0, 1, 3} {
		for _, r := range [][2]int32{{0, 1024}, {0, 40}, {300, 700}, {1000, 1024}} {
			lo, hi := r[0], r[1]
			where := fmt.Sprintf("gpus=%d [%d,%d)", gpus, lo, hi)
			got := runView(t, gpus, boruvka.NewWindow(el, deg, lo, hi), nil, ghost)
			ids, edges := rangeList(el, lo, hi, identity)
			want := runView(t, gpus, newLocal(t, ids, edges), edges, ghost)
			ids, edges = rangeList(el, lo, hi, scatter)
			later := runView(t, gpus, newLocal(t, ids, edges), edges, scatterGhost)
			for _, c := range []struct {
				name string
				got  viewRun
				want viewRun
			}{
				{"window vs list", got, want},
				{"scattered vs window renamed", later, scatterRun(got)},
			} {
				if !reflect.DeepEqual(c.got.res, c.want.res) {
					t.Fatalf("%s %s: result %+v, want %+v", where, c.name, c.got.res, c.want.res)
				}
				if !reflect.DeepEqual(c.got.reduced, c.want.reduced) {
					t.Fatalf("%s %s: reduced edges differ: %d vs %d", where, c.name, len(c.got.reduced), len(c.want.reduced))
				}
				if c.got.secs != c.want.secs {
					t.Fatalf("%s %s: charged %g s, want %g s", where, c.name, c.got.secs, c.want.secs)
				}
			}
		}
	}
}
