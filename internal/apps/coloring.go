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

// tagColorGather marks the final color gather.
const tagColorGather = 304

// Coloring computes a proper vertex coloring with the distributed
// Jones–Plassmann algorithm: vertices carry deterministic pseudo-random
// priorities; each round, every uncolored vertex whose priority beats all
// of its uncolored neighbours takes the smallest color unused among its
// neighbours, and newly assigned colors of boundary vertices are shipped
// to the neighbouring ranks.
func Coloring(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, seed int64) (*ColoringResult, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	cpu := &device.CPU{Model: machine.CPU}
	c := cluster.New(p, machine.Comm)
	var out *ColoringResult
	rounds := make([]int, p)
	rep, err := c.Run(ctx, func(r *cluster.Rank) error {
		color, rd, err := coloringRank(r, el, cpu, seed)
		if err != nil {
			return err
		}
		rounds[r.ID()] = rd
		if color != nil {
			out = &ColoringResult{Color: color}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("apps: no rank produced the coloring")
	}
	out.Report = rep
	out.Rounds = rounds[0]
	maxC := int32(-1)
	for _, c := range out.Color {
		if c > maxC {
			maxC = c
		}
	}
	out.Colors = int(maxC + 1)
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

func coloringRank(r *cluster.Rank, el *graph.EdgeList, cpu device.Device, seed int64) ([]int32, int, error) {
	r.SetPhase("coloring")
	bounds, deg, win := readWindow(r, el, cpu)
	p := r.P()
	me := r.ID()
	lo, hi := bounds[me], bounds[me+1]
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
			dst, _ := win.Arcs(v)
			work.EdgesScanned += deg[gv]
			used := map[int32]bool{}
			for _, h := range dst {
				u := win.Global(h)
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
		r.Compute(cpu.Price(work))

		// Ship newly assigned colors of boundary vertices to the ranks
		// owning their neighbours.
		sendSets := make([]map[int32]int32, p)
		for _, gv := range newly {
			dst, _ := win.Arcs(int(gv - lo))
			for _, h := range dst {
				if h >= 0 {
					continue
				}
				o := partition.OwnerOf(bounds, ^h)
				if sendSets[o] == nil {
					sendSets[o] = map[int32]int32{}
				}
				sendSets[o][gv] = color[gv-lo]
			}
		}
		payloads := make([][]byte, p)
		for d := 0; d < p; d++ {
			if d == me || sendSets[d] == nil {
				continue
			}
			keys := make([]int32, 0, len(sendSets[d]))
			for v := range sendSets[d] {
				keys = append(keys, v)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			var pairs []int32
			for _, v := range keys {
				pairs = append(pairs, v, sendSets[d][v])
			}
			payloads[d] = wire.AppendInt32s(nil, pairs)
		}
		in := r.Alltoall(payloads)
		for src := 0; src < p; src++ {
			if src == me || len(in[src]) == 0 {
				continue
			}
			pairs, _, err := wire.TakeInt32s(in[src])
			if err != nil {
				return nil, 0, err
			}
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

	// Gather at rank 0.
	if me != 0 {
		r.Send(0, tagColorGather, wire.AppendInt32s(nil, color))
		return nil, rounds, nil
	}
	all := make([]int32, el.N)
	copy(all[lo:hi], color)
	for src := 1; src < p; src++ {
		cs, _, err := wire.TakeInt32s(r.Recv(src, tagColorGather))
		if err != nil {
			return nil, 0, err
		}
		slo := bounds[src]
		copy(all[slo:int(slo)+len(cs)], cs)
	}
	return all, rounds, nil
}
