package apps

import (
	"context"
	"fmt"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/partition"
)

// appRank is one rank of an app run with its share of the graph: the
// degree-balanced bounds of partition.ReadBounds, the allreduced degrees,
// and the window of the rank's vertex range [lo, hi). A vertex's degree
// is its per-arc scan charge: a self-loop keeps one arc in the window but
// counts twice in its degree.
type appRank struct {
	*cluster.Rank
	cpu    device.Device
	bounds []int32
	deg    []int64
	win    *boruvka.Local
	lo, hi int32
}

// charge books w as modeled computation on the rank's CPU.
func (r *appRank) charge(w cost.Work) { r.Compute(r.cpu.Price(w)) }

// owner is the rank whose range holds global vertex v.
func (r *appRank) owner(v int32) int { return partition.OwnerOf(r.bounds, v) }

// run is the superstep harness of the BSP-style apps. It validates el and
// runs program on p ranks of machine, labelled phase. Each rank first
// reads its share of the graph, charged to its CPU as one read; program
// then returns the values of the rank's vertices and its superstep count.
// Rank 0 gathers the values in vertex order, encoded by enc and decoded
// by dec, and run returns them with rank 0's count and the report.
func run[T any](ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, phase string,
	program func(r *appRank) ([]T, int, error), enc func([]T) []byte, dec func([]byte) ([]T, error)) ([]T, int, *cluster.Report, error) {
	if err := el.Validate(); err != nil {
		return nil, 0, nil, err
	}
	cpu := &device.CPU{Model: machine.CPU}
	var all []T
	var steps int
	rep, err := cluster.New(p, machine.Comm).Run(ctx, func(cr *cluster.Rank) error {
		cr.SetPhase(phase)
		bounds, deg, w := partition.ReadBounds(cr, el, partition.ByDegree, nil)
		r := &appRank{Rank: cr, cpu: cpu, bounds: bounds, deg: deg, lo: bounds[cr.ID()], hi: bounds[cr.ID()+1]}
		r.win = boruvka.NewWindow(el, deg, r.lo, r.hi)
		w.EdgesScanned += r.win.NumEdges
		r.charge(w)
		vals, n, err := program(r)
		if err != nil {
			return err
		}
		parts := r.Gather(enc(vals))
		if parts == nil {
			return nil
		}
		all, steps = make([]T, 0, el.N), n
		for _, buf := range parts {
			got, err := dec(buf)
			if err != nil {
				return err
			}
			all = append(all, got...)
		}
		if len(all) != int(el.N) {
			return fmt.Errorf("apps: gathered %d values for %d vertices", len(all), el.N)
		}
		return nil
	})
	if err != nil {
		return nil, 0, nil, err
	}
	return all, steps, rep, nil
}

// sparse wraps a list encoder so that an empty list is an empty payload,
// the convention of the PageRank and Coloring exchanges.
func sparse[T any](enc func([]T) []byte) func([]T) []byte {
	return func(vals []T) []byte {
		if len(vals) == 0 {
			return nil
		}
		return enc(vals)
	}
}
