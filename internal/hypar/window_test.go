package hypar

import (
	"fmt"
	"reflect"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/gen"
	"mndmst/internal/merge"
	"mndmst/internal/wire"
)

// TestIndCompWindowMatchesList: indComp and the merge-phase reduction
// over a window give the same result, and charge the same simulated time,
// as over the range's extracted edge list — on the CPU alone and split
// across one or three accelerators.
func TestIndCompWindowMatchesList(t *testing.T) {
	el := gen.RMAT(1024, 12_000, 17)
	deg := el.Degrees()
	for _, gpus := range []int{0, 1, 3} {
		for _, r := range [][2]int32{{0, 1024}, {0, 40}, {300, 700}, {1000, 1024}} {
			lo, hi := r[0], r[1]
			type out struct {
				res     *IndResult
				reduced []wire.WEdge
				secs    float64
			}
			// ghost stands in for remote deltas: it folds every outside
			// vertex onto a neighbour so some cut edges become parallel.
			ghost := func(v int32) int32 { return v &^ 1 }
			run := func(window bool) out {
				var o out
				onRank(t, func(rt *Runtime) error {
					if gpus == 0 {
						rt.Cfg.GPUShare = 0
					}
					for len(rt.GPUs) < gpus {
						rt.GPUs = append(rt.GPUs, rt.GPUs[0])
					}
					var err error
					if window {
						win := &Window{Lo: lo, View: boruvka.NewWindow(el, deg, lo, hi)}
						if o.res, err = rt.IndCompWindow(win); err != nil {
							return err
						}
						o.reduced = rt.ReduceWindow(win, o.res.Parent, ghost)
					} else {
						var edges []wire.WEdge
						for _, e := range el.Edges {
							if e.U >= lo && e.U < hi || e.V >= lo && e.V < hi {
								edges = append(edges, wire.WEdge{U: e.U, V: e.V, W: e.W, ID: e.ID})
							}
						}
						ids := make([]int32, 0, hi-lo)
						for v := lo; v < hi; v++ {
							ids = append(ids, v)
						}
						if o.res, err = rt.IndComp(ids, edges); err != nil {
							return err
						}
						local := merge.ApplyDeltas(o.res.Deltas)
						o.reduced = rt.Reduce(edges, func(v int32) int32 {
							if v >= lo && v < hi {
								return local(v)
							}
							return ghost(v)
						})
					}
					o.secs = rt.R.ComputeTime()
					return nil
				})
				return o
			}
			got, want := run(true), run(false)
			where := fmt.Sprintf("gpus=%d [%d,%d)", gpus, lo, hi)
			if !reflect.DeepEqual(got.res, want.res) {
				t.Fatalf("%s: window result %+v, list %+v", where, got.res, want.res)
			}
			if !reflect.DeepEqual(got.reduced, want.reduced) {
				t.Fatalf("%s: reduced edges differ: %d vs %d", where, len(got.reduced), len(want.reduced))
			}
			if got.secs != want.secs {
				t.Fatalf("%s: charged %g s, list charged %g s", where, got.secs, want.secs)
			}
		}
	}
}
