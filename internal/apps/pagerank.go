package apps

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// PageRankResult holds the converged ranks.
type PageRankResult struct {
	Ranks []float64
	// Iterations is the number of power iterations executed.
	Iterations int
	Report     *cluster.Report
}

// PageRank runs the classic Pregel application on the simulated cluster:
// per superstep, every vertex scatters rank/degree to its neighbours
// (contributions to remote vertices are pre-summed per destination rank —
// the combiner) and applies the damped update. The graph is treated as
// undirected, matching the rest of the repository. Iteration stops when
// the global L1 delta falls below tol, or after maxIter supersteps.
func PageRank(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, damping float64, tol float64, maxIter int) (*PageRankResult, error) {
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("apps: damping %f outside (0,1)", damping)
	}
	if maxIter < 1 {
		maxIter = 50
	}
	ranks, iters, rep, err := run(ctx, el, p, machine, "pagerank", func(r *appRank) ([]float64, int, error) {
		return pagerankRank(r, float64(el.N), damping, tol, maxIter)
	}, encodeRanks, decodeRanks)
	if err != nil {
		return nil, err
	}
	return &PageRankResult{Ranks: ranks, Iterations: iters, Report: rep}, nil
}

func pagerankRank(r *appRank, total, damping, tol float64, maxIter int) ([]float64, int, error) {
	lo, hi := r.lo, r.hi
	n := int(hi - lo)
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
		remote := make([]map[int32]float64, r.P())
		for v := 0; v < n; v++ {
			d := r.deg[lo+int32(v)]
			if d == 0 {
				continue
			}
			share := rank[v] / float64(d)
			dst, _ := r.win.Arcs(v)
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
					o := r.owner(u)
					if remote[o] == nil {
						remote[o] = map[int32]float64{}
					}
					remote[o][u] += share
					work.HashOps++
				}
			}
			work.VerticesProcessed++
		}
		r.charge(work)

		// Ship each destination's sums as (vertex, bits) pairs in vertex
		// order; a rank with no sums for a destination sends nothing.
		lists := make([][]uint64, len(remote))
		for d, sums := range remote {
			keys := make([]int32, 0, len(sums))
			for v := range sums {
				keys = append(keys, v)
			}
			slices.Sort(keys)
			lists[d] = make([]uint64, 0, 2*len(keys))
			for _, v := range keys {
				lists[d] = append(lists[d], uint64(uint32(v)), math.Float64bits(sums[v]))
			}
		}
		in, err := cluster.Exchange(r.Rank, lists, sparse(wire.EncodeUint64s), wire.DecodeUint64s)
		if err != nil {
			return nil, 0, err
		}
		for _, vals := range in {
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
	return rank, it, nil
}

// encodeRanks ships ranks as their float64 bits.
func encodeRanks(ranks []float64) []byte {
	bits := make([]uint64, len(ranks))
	for i, x := range ranks {
		bits[i] = math.Float64bits(x)
	}
	return wire.EncodeUint64s(bits)
}

// decodeRanks reads an encodeRanks payload.
func decodeRanks(buf []byte) ([]float64, error) {
	bits, err := wire.DecodeUint64s(buf)
	ranks := make([]float64, len(bits))
	for i, b := range bits {
		ranks[i] = math.Float64frombits(b)
	}
	return ranks, err
}
