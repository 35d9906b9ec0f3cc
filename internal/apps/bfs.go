// Package apps implements additional distributed graph applications on the
// same simulated-cluster substrate as MND-MST. The paper's conclusion
// (§6) names extending HyPar to more graph applications as future work;
// this package provides two: a level-synchronous distributed BFS (the
// canonical application that is NOT amenable to divide-and-conquer, hence
// run BSP-style) and connected components (which reduces to the MSF
// machinery and inherits its divide-and-conquer benefits).
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

// BFSResult is the outcome of a distributed BFS.
type BFSResult struct {
	// Dist maps every vertex to its hop distance from the source, or -1
	// if unreachable.
	Dist []int32
	// Levels is the number of BFS levels (supersteps).
	Levels int
	Report *cluster.Report
}

// BFS runs a level-synchronous distributed breadth-first search from
// source on p ranks of the machine. Each level is one superstep: ranks
// expand their local frontier and ship newly reached remote vertices to
// their owners.
func BFS(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, source int32) (*BFSResult, error) {
	if source < 0 || source >= el.N {
		return nil, fmt.Errorf("apps: source %d out of range [0,%d)", source, el.N)
	}
	dist, levels, rep, err := run(ctx, el, p, machine, "bfs", func(r *appRank) ([]int32, int, error) {
		return bfsRank(r, source)
	}, wire.EncodeInt32s, wire.DecodeInt32s)
	if err != nil {
		return nil, err
	}
	return &BFSResult{Dist: dist, Levels: levels, Report: rep}, nil
}

func bfsRank(r *appRank, source int32) ([]int32, int, error) {
	lo, hi := r.lo, r.hi
	dist := make([]int32, hi-lo)
	for i := range dist {
		dist[i] = -1
	}
	var frontier []int32 // local vertices to expand this level
	if source >= lo && source < hi {
		dist[source-lo] = 0
		frontier = append(frontier, source)
	}

	level := int32(0)
	levels := 0
	for {
		var work cost.Work
		work.Iterations = 1
		// Expand: local relaxations plus remote candidates bucketed by
		// owner. Within-rank reached vertices join the next frontier
		// directly.
		var next []int32
		remote := make([][]int32, r.P())
		for _, u := range frontier {
			dst, _ := r.win.Arcs(int(u - lo))
			work.EdgesScanned += r.deg[u]
			for _, h := range dst {
				if h >= 0 {
					if dist[h] < 0 {
						dist[h] = level + 1
						next = append(next, lo+h)
					}
				} else {
					v := ^h
					o := r.owner(v)
					remote[o] = append(remote[o], v)
				}
			}
			work.VerticesProcessed++
		}
		r.charge(work)

		// Superstep exchange: ship remote candidates to their owners.
		for _, cands := range remote {
			slices.Sort(cands)
		}
		in, err := cluster.Exchange(r.Rank, remote, wire.EncodeInt32s, wire.DecodeInt32s)
		if err != nil {
			return nil, 0, err
		}
		for _, cands := range in {
			for _, v := range cands {
				if dist[v-lo] < 0 {
					dist[v-lo] = level + 1
					next = append(next, v)
				}
			}
		}
		r.Barrier()
		levels++

		total := r.AllreduceScalar(int64(len(next)), cluster.OpSum)
		if total == 0 {
			break
		}
		slices.Sort(next)
		frontier = next
		level++
	}
	return dist, levels, nil
}
