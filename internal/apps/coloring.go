package apps

import (
	"context"
	"slices"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// ColoringResult is a proper vertex coloring.
type ColoringResult struct {
	// Color assigns every vertex a color in [0, Colors).
	Color []int32
	// Colors is the number of distinct colors used.
	Colors int
	// Rounds is the number of Jones–Plassmann rounds.
	Rounds int
	Report *cluster.Report
}

// Coloring computes a proper vertex coloring with the distributed
// Jones–Plassmann algorithm: vertices carry deterministic pseudo-random
// priorities; each round, every uncolored vertex whose priority beats all
// of its uncolored neighbours takes the smallest color unused among its
// neighbours, and newly assigned colors of boundary vertices are shipped
// to the neighbouring ranks.
func Coloring(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, seed int64) (*ColoringResult, error) {
	color, rounds, rep, err := run(ctx, el, p, machine, "coloring", func(r *appRank) ([]int32, int, error) {
		return coloringRank(r, seed)
	}, wire.EncodeInt32s, wire.DecodeInt32s)
	if err != nil {
		return nil, err
	}
	out := &ColoringResult{Color: color, Rounds: rounds, Report: rep}
	for _, c := range color {
		out.Colors = max(out.Colors, int(c)+1)
	}
	return out, nil
}

// priority is a deterministic pseudo-random total order over vertices.
func priority(v int32, seed int64) uint64 {
	x := uint64(v)*0x9e3779b97f4a7c15 + uint64(seed)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// Tie-break by vertex id for a strict total order.
	return x<<32 | uint64(uint32(v))
}

func coloringRank(r *appRank, seed int64) ([]int32, int, error) {
	lo, hi := r.lo, r.hi
	n := int(hi - lo)
	color := make([]int32, n)
	for i := range color {
		color[i] = -1
	}
	// ghostColor caches neighbour colors (remote vertices only).
	ghostColor := map[int32]int32{}
	colorOf := func(v int32) int32 {
		if v >= lo && v < hi {
			return color[v-lo]
		}
		if c, ok := ghostColor[v]; ok {
			return c
		}
		return -1
	}

	uncolored := int64(n)
	rounds := 0
	for {
		var work cost.Work
		work.Iterations = 1
		// Select local maxima among uncolored vertices and color them.
		var newly []int32
		for v := 0; v < n; v++ {
			if color[v] >= 0 {
				continue
			}
			gv := lo + int32(v)
			pv := priority(gv, seed)
			wins := true
			dst, _ := r.win.Arcs(v)
			work.EdgesScanned += r.deg[gv]
			used := map[int32]bool{}
			for _, h := range dst {
				u := r.win.Global(h)
				if u == gv {
					continue
				}
				cu := colorOf(u)
				if cu >= 0 {
					used[cu] = true
					continue
				}
				if priority(u, seed) > pv {
					wins = false
				}
			}
			if !wins {
				continue
			}
			c := int32(0)
			for used[c] {
				c++
			}
			color[v] = c
			newly = append(newly, gv)
			work.VerticesProcessed++
		}
		uncolored -= int64(len(newly))
		r.charge(work)

		// Ship newly assigned colors of boundary vertices to the ranks
		// owning their neighbours, as (vertex, color) pairs in vertex
		// order; a rank with none for a destination sends nothing.
		sendSets := make([]map[int32]int32, r.P())
		for _, gv := range newly {
			dst, _ := r.win.Arcs(int(gv - lo))
			for _, h := range dst {
				if h >= 0 {
					continue
				}
				o := r.owner(^h)
				if sendSets[o] == nil {
					sendSets[o] = map[int32]int32{}
				}
				sendSets[o][gv] = color[gv-lo]
			}
		}
		lists := make([][]int32, len(sendSets))
		for d, set := range sendSets {
			keys := make([]int32, 0, len(set))
			for v := range set {
				keys = append(keys, v)
			}
			slices.Sort(keys)
			for _, v := range keys {
				lists[d] = append(lists[d], v, set[v])
			}
		}
		in, err := cluster.Exchange(r.Rank, lists, sparse(wire.EncodeInt32s), wire.DecodeInt32s)
		if err != nil {
			return nil, 0, err
		}
		for _, pairs := range in {
			for i := 0; i+1 < len(pairs); i += 2 {
				ghostColor[pairs[i]] = pairs[i+1]
			}
		}
		r.Barrier()
		rounds++

		remaining := r.AllreduceScalar(uncolored, cluster.OpSum)
		if remaining == 0 {
			break
		}
	}
	return color, rounds, nil
}
