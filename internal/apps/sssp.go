package apps

import (
	"context"
	"fmt"
	"slices"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// SSSPResult is the outcome of a distributed single-source shortest-path
// run.
type SSSPResult struct {
	// Dist maps every vertex to its shortest-path distance (sum of packed
	// edge weights) from the source; Unreachable marks the rest.
	Dist []uint64
	// Rounds is the number of relaxation supersteps.
	Rounds int
	Report *cluster.Report
}

// Unreachable is the distance of vertices with no path from the source.
const Unreachable = ^uint64(0)

// SSSP computes single-source shortest paths with distributed
// Bellman-Ford: each superstep relaxes the local frontier and ships
// improved remote tentative distances to their owners. Weights are the
// packed distinct edge weights, so results compare exactly against the
// sequential reference.
func SSSP(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, source int32) (*SSSPResult, error) {
	if source < 0 || source >= el.N {
		return nil, fmt.Errorf("apps: source %d out of range [0,%d)", source, el.N)
	}
	dist, rounds, rep, err := run(ctx, el, p, machine, "sssp", func(r *appRank) ([]uint64, int, error) {
		return ssspRank(r, source)
	}, wire.EncodeUint64s, wire.DecodeUint64s)
	if err != nil {
		return nil, err
	}
	return &SSSPResult{Dist: dist, Rounds: rounds, Report: rep}, nil
}

func ssspRank(r *appRank, source int32) ([]uint64, int, error) {
	lo, hi := r.lo, r.hi
	dist := make([]uint64, hi-lo)
	for i := range dist {
		dist[i] = Unreachable
	}
	var frontier []int32
	if source >= lo && source < hi {
		dist[source-lo] = 0
		frontier = append(frontier, source)
	}

	rounds := 0
	for {
		var work cost.Work
		work.Iterations = 1
		var next []int32
		inNext := map[int32]bool{}
		// remoteBest[v] = best tentative distance found for remote vertex v.
		remoteBest := map[int32]uint64{}
		for _, u := range frontier {
			du := dist[u-lo]
			dst, wt := r.win.Arcs(int(u - lo))
			work.EdgesScanned += r.deg[u]
			for j, h := range dst {
				cand := du + wt[j]
				if h >= 0 {
					if cand < dist[h] {
						dist[h] = cand
						if v := lo + h; !inNext[v] {
							inNext[v] = true
							next = append(next, v)
						}
					}
				} else if cur, ok := remoteBest[^h]; !ok || cand < cur {
					remoteBest[^h] = cand
					work.HashOps++
				}
			}
			work.VerticesProcessed++
		}
		r.charge(work)

		// Combine per destination rank (one tentative distance per remote
		// vertex) and exchange.
		keys := make([]int32, 0, len(remoteBest))
		for v := range remoteBest {
			keys = append(keys, v)
		}
		slices.Sort(keys)
		lists := make([][]uint64, r.P())
		for _, v := range keys {
			o := r.owner(v)
			lists[o] = append(lists[o], uint64(uint32(v)), remoteBest[v])
		}
		in, err := cluster.Exchange(r.Rank, lists, wire.EncodeUint64s, wire.DecodeUint64s)
		if err != nil {
			return nil, 0, err
		}
		for _, vals := range in {
			for i := 0; i+1 < len(vals); i += 2 {
				v := int32(uint32(vals[i]))
				cand := vals[i+1]
				if cand < dist[v-lo] {
					dist[v-lo] = cand
					if !inNext[v] {
						inNext[v] = true
						next = append(next, v)
					}
				}
			}
		}
		r.Barrier()
		rounds++

		total := r.AllreduceScalar(int64(len(next)), cluster.OpSum)
		if total == 0 {
			break
		}
		slices.Sort(next)
		frontier = next
	}
	return dist, rounds, nil
}
