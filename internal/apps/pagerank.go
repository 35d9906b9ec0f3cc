package apps

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/partition"
	"mndmst/internal/wire"
)

// PageRankResult holds the converged ranks.
type PageRankResult struct {
	Ranks []float64
	// Iterations is the number of power iterations executed.
	Iterations int
	Report     *cluster.Report
}

// tagPRGather marks the final rank gather.
const tagPRGather = 303

// PageRank runs the classic Pregel application on the simulated cluster:
// per superstep, every vertex scatters rank/degree to its neighbours
// (contributions to remote vertices are pre-summed per destination rank —
// the combiner) and applies the damped update. The graph is treated as
// undirected, matching the rest of the repository. Iteration stops when
// the global L1 delta falls below tol, or after maxIter supersteps.
func PageRank(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, damping float64, tol float64, maxIter int) (*PageRankResult, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("apps: damping %f outside (0,1)", damping)
	}
	if maxIter < 1 {
		maxIter = 50
	}
	cpu := &device.CPU{Model: machine.CPU}
	c := cluster.New(p, machine.Comm)
	var out *PageRankResult
	iters := make([]int, p)
	rep, err := c.Run(ctx, func(r *cluster.Rank) error {
		ranks, it, err := pagerankRank(r, el, cpu, damping, tol, maxIter)
		if err != nil {
			return err
		}
		iters[r.ID()] = it
		if ranks != nil {
			out = &PageRankResult{Ranks: ranks}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("apps: no rank produced the ranks")
	}
	out.Report = rep
	out.Iterations = iters[0]
	return out, nil
}

func pagerankRank(r *cluster.Rank, el *graph.EdgeList, cpu device.Device, damping, tol float64, maxIter int) ([]float64, int, error) {
	r.SetPhase("pagerank")
	bounds, deg, win := readWindow(r, el, cpu)
	p := r.P()
	me := r.ID()
	lo, hi := bounds[me], bounds[me+1]
	n := int(hi - lo)
	total := float64(el.N)

	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / total
	}
	incoming := make([]float64, n)

	it := 0
	for it < maxIter {
		it++
		var work cost.Work
		work.Iterations = 1
		for i := range incoming {
			incoming[i] = 0
		}
		// Scatter: local contributions applied directly; remote summed per
		// destination rank per vertex (combiner).
		remote := make([]map[int32]float64, p)
		for v := 0; v < n; v++ {
			d := deg[lo+int32(v)]
			if d == 0 {
				continue
			}
			share := rank[v] / float64(d)
			dst, _ := win.Arcs(v)
			work.EdgesScanned += d
			for _, h := range dst {
				switch {
				case int(h) == v:
					// A self-loop is two arcs of the degree: add its
					// share twice, as two adjacent arcs would.
					incoming[v] += share
					incoming[v] += share
				case h >= 0:
					incoming[h] += share
				default:
					u := ^h
					o := partition.OwnerOf(bounds, u)
					if remote[o] == nil {
						remote[o] = map[int32]float64{}
					}
					remote[o][u] += share
					work.HashOps++
				}
			}
			work.VerticesProcessed++
		}
		r.Compute(cpu.Price(work))

		payloads := make([][]byte, p)
		for d := 0; d < p; d++ {
			if d == me || remote[d] == nil {
				continue
			}
			keys := make([]int32, 0, len(remote[d]))
			for v := range remote[d] {
				keys = append(keys, v)
			}
			sortInt32s(keys)
			vals := make([]uint64, 0, 2*len(keys))
			for _, v := range keys {
				vals = append(vals, uint64(uint32(v)), math.Float64bits(remote[d][v]))
			}
			payloads[d] = wire.AppendUint64s(nil, vals)
		}
		in := r.Alltoall(payloads)
		for src := 0; src < p; src++ {
			if src == me || len(in[src]) == 0 {
				continue
			}
			vals, _, err := wire.TakeUint64s(in[src])
			if err != nil {
				return nil, 0, err
			}
			for i := 0; i+1 < len(vals); i += 2 {
				v := int32(uint32(vals[i]))
				incoming[v-lo] += math.Float64frombits(vals[i+1])
			}
		}
		r.Barrier()

		// Apply the damped update and measure the local L1 delta.
		var delta float64
		base := (1 - damping) / total
		for v := 0; v < n; v++ {
			nr := base + damping*incoming[v]
			delta += math.Abs(nr - rank[v])
			rank[v] = nr
		}
		// Global convergence check in fixed-point billionths (the
		// collective carries int64).
		dTotal := r.AllreduceScalar(int64(delta*1e9), cluster.OpSum)
		if float64(dTotal)/1e9 < tol {
			break
		}
	}

	// Gather at rank 0.
	if me != 0 {
		vals := make([]uint64, n)
		for i, rv := range rank {
			vals[i] = math.Float64bits(rv)
		}
		r.Send(0, tagPRGather, wire.AppendUint64s(nil, vals))
		return nil, it, nil
	}
	all := make([]float64, el.N)
	copy(all[lo:hi], rank)
	for src := 1; src < p; src++ {
		vals, _, err := wire.TakeUint64s(r.Recv(src, tagPRGather))
		if err != nil {
			return nil, 0, err
		}
		slo := bounds[src]
		for i, b := range vals {
			all[int(slo)+i] = math.Float64frombits(b)
		}
	}
	return all, it, nil
}

func sortInt32s(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
