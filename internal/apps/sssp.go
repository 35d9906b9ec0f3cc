package apps

import (
	"context"
	"fmt"
	"sort"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/partition"
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

// tagSSSPDist marks the final distance gather.
const tagSSSPDist = 302

// SSSP computes single-source shortest paths with distributed
// Bellman-Ford: each superstep relaxes the local frontier and ships
// improved remote tentative distances to their owners. Weights are the
// packed distinct edge weights, so results compare exactly against the
// sequential reference.
func SSSP(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, source int32) (*SSSPResult, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	if source < 0 || source >= el.N {
		return nil, fmt.Errorf("apps: source %d out of range [0,%d)", source, el.N)
	}
	cpu := &device.CPU{Model: machine.CPU}
	c := cluster.New(p, machine.Comm)
	var out *SSSPResult
	rounds := make([]int, p)
	rep, err := c.Run(ctx, func(r *cluster.Rank) error {
		dist, rd, err := ssspRank(r, el, cpu, source)
		if err != nil {
			return err
		}
		rounds[r.ID()] = rd
		if dist != nil {
			out = &SSSPResult{Dist: dist}
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
	out.Rounds = rounds[0]
	return out, nil
}

func ssspRank(r *cluster.Rank, el *graph.EdgeList, cpu device.Device, source int32) ([]uint64, int, error) {
	r.SetPhase("sssp")
	bounds, deg, win := readWindow(r, el, cpu)
	p := r.P()
	me := r.ID()
	lo, hi := bounds[me], bounds[me+1]
	n := int(hi - lo)

	dist := make([]uint64, n)
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
			dst, wt := win.Arcs(int(u - lo))
			work.EdgesScanned += deg[u]
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
		r.Compute(cpu.Price(work))

		// Combine per destination rank (one tentative distance per remote
		// vertex) and exchange.
		payloads := make([][]byte, p)
		keys := make([]int32, 0, len(remoteBest))
		for v := range remoteBest {
			keys = append(keys, v)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		lists := make([][]uint64, p)
		for _, v := range keys {
			o := partition.OwnerOf(bounds, v)
			lists[o] = append(lists[o], uint64(uint32(v)), remoteBest[v])
		}
		for d := 0; d < p; d++ {
			if d == me {
				continue
			}
			payloads[d] = wire.AppendUint64s(nil, lists[d])
		}
		in := r.Alltoall(payloads)
		for src := 0; src < p; src++ {
			if src == me {
				continue
			}
			vals, _, err := wire.TakeUint64s(in[src])
			if err != nil {
				return nil, 0, err
			}
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
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}

	// Gather distances at rank 0.
	if me != 0 {
		r.Send(0, tagSSSPDist, wire.AppendUint64s(nil, dist))
		return nil, rounds, nil
	}
	all := make([]uint64, el.N)
	copy(all[lo:hi], dist)
	for src := 1; src < p; src++ {
		d, _, err := wire.TakeUint64s(r.Recv(src, tagSSSPDist))
		if err != nil {
			return nil, 0, err
		}
		slo := bounds[src]
		copy(all[slo:int(slo)+len(d)], d)
	}
	return all, rounds, nil
}
