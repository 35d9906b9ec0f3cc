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
	"sort"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/partition"
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

// tagBFSDist marks the final distance gather; frontier exchanges use the
// cluster's Alltoall collective.
const tagBFSDist = 301

// BFS runs a level-synchronous distributed breadth-first search from
// source on p ranks of the machine. Each level is one superstep: ranks
// expand their local frontier and ship newly reached remote vertices to
// their owners.
func BFS(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, source int32) (*BFSResult, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	if source < 0 || source >= el.N {
		return nil, fmt.Errorf("apps: source %d out of range [0,%d)", source, el.N)
	}
	cpu := &device.CPU{Model: machine.CPU}
	c := cluster.New(p, machine.Comm)
	var out *BFSResult
	levels := make([]int, p)
	rep, err := c.Run(ctx, func(r *cluster.Rank) error {
		res, lv, err := bfsRank(r, el, cpu, source)
		if err != nil {
			return err
		}
		levels[r.ID()] = lv
		if res != nil {
			out = &BFSResult{Dist: res}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("apps: no rank produced the distances")
	}
	out.Report = rep
	out.Levels = levels[0]
	return out, nil
}

// readWindow is the partitioning step of every app: the degree-balanced
// bounds of partition.ReadBounds and the window of the rank's vertex range,
// built from the edge list and charged to cpu as one read. It also returns
// the allreduced degrees, the per-arc scan charge of a vertex: a self-loop
// keeps one arc in the window but counts twice in its degree.
func readWindow(r *cluster.Rank, el *graph.EdgeList, cpu device.Device) ([]int32, []int64, *boruvka.Local) {
	bounds, deg, w := partition.ReadBounds(r, el, partition.ByDegree, nil)
	win := boruvka.NewWindow(el, deg, bounds[r.ID()], bounds[r.ID()+1])
	w.EdgesScanned += win.NumEdges
	r.Compute(cpu.Price(w))
	return bounds, deg, win
}

func bfsRank(r *cluster.Rank, el *graph.EdgeList, cpu device.Device, source int32) ([]int32, int, error) {
	r.SetPhase("bfs")
	bounds, deg, win := readWindow(r, el, cpu)
	p := r.P()
	me := r.ID()
	lo, hi := bounds[me], bounds[me+1]
	n := int(hi - lo)

	dist := make([]int32, n)
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
		remote := make([][]int32, p)
		for _, u := range frontier {
			dst, _ := win.Arcs(int(u - lo))
			work.EdgesScanned += deg[u]
			for _, h := range dst {
				if h >= 0 {
					if dist[h] < 0 {
						dist[h] = level + 1
						next = append(next, lo+h)
					}
				} else {
					v := ^h
					o := partition.OwnerOf(bounds, v)
					remote[o] = append(remote[o], v)
				}
			}
			work.VerticesProcessed++
		}
		r.Compute(cpu.Price(work))

		// Superstep exchange: ship remote candidates to their owners via
		// the all-to-all collective.
		out := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			if dst == me {
				continue
			}
			sort.Slice(remote[dst], func(i, j int) bool { return remote[dst][i] < remote[dst][j] })
			out[dst] = wire.AppendInt32s(nil, remote[dst])
		}
		in := r.Alltoall(out)
		for src := 0; src < p; src++ {
			if src == me {
				continue
			}
			cands, _, err := wire.TakeInt32s(in[src])
			if err != nil {
				return nil, 0, err
			}
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
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
		level++
	}

	// Gather distances at rank 0.
	if me != 0 {
		r.Send(0, tagBFSDist, wire.AppendInt32s(nil, dist))
		return nil, levels, nil
	}
	all := make([]int32, el.N)
	copy(all[lo:hi], dist)
	for src := 1; src < p; src++ {
		d, _, err := wire.TakeInt32s(r.Recv(src, tagBFSDist))
		if err != nil {
			return nil, 0, err
		}
		slo := bounds[src]
		copy(all[slo:slo+int32(len(d))], d)
	}
	return all, levels, nil
}
