package apps

import (
	"context"

	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/dsu"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
)

// CCResult labels every vertex with its connected component.
type CCResult struct {
	// Label maps each vertex to its component representative (the
	// minimum vertex id in the component).
	Label []int32
	// Components is the number of connected components.
	Components int
	Report     *cluster.Report
}

// ConnectedComponents computes the connected components of el on p
// simulated ranks. Connectivity is exactly the MSF's component structure,
// so the application reuses the full MND-MST divide-and-conquer pipeline —
// the paper's framework argument: new applications compose from the same
// partition / indComp / merge machinery — and derives labels from the
// forest.
func ConnectedComponents(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, cfg hypar.Config) (*CCResult, error) {
	res, err := core.Run(ctx, el, p, machine, cfg, false)
	if err != nil {
		return nil, err
	}
	d := dsu.New(int(el.N))
	for _, id := range res.Forest.EdgeIDs {
		e := &el.Edges[id]
		d.Union(e.U, e.V)
	}
	// Representative = min vertex id per component, assigned in one
	// ascending pass.
	label := make([]int32, el.N)
	rep := make(map[int32]int32, res.Forest.Components)
	for v := int32(0); v < el.N; v++ {
		root := d.Find(v)
		if _, ok := rep[root]; !ok {
			rep[root] = v // first (smallest) vertex of the component
		}
		label[v] = rep[root]
	}
	return &CCResult{Label: label, Components: res.Forest.Components, Report: res.Report}, nil
}
