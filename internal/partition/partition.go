// Package partition implements the distributed graph partitioning of §3.1:
// a Gemini-style parallel read where every rank computes the degrees of a
// provisional vertex slice, the ranks allreduce the degree vector, and each
// derives the same contiguous 1D partition balanced by edge count.
package partition

import (
	"sort"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
)

// OwnerOf locates v's owner by binary search over the shared bounds.
func OwnerOf(bounds []int32, v int32) int {
	// bounds[i] <= v < bounds[i+1]
	i := sort.Search(len(bounds)-1, func(i int) bool { return bounds[i+1] > v })
	return i
}

// BalancedBounds computes contiguous boundaries over n vertices such that
// the per-rank sums of degrees are near-balanced (the paper's 1D
// partitioning "based on the degrees ... to balance the number of edges
// across computing units").
func BalancedBounds(degrees []int64, p int) []int32 {
	n := len(degrees)
	var total int64
	for _, d := range degrees {
		total += d
	}
	bounds := make([]int32, p+1)
	bounds[p] = int32(n)
	var run int64
	next := 1
	target := total / int64(p) // partition next-1's cumulative share
	for v := 0; v < n && next < p; v++ {
		run += degrees[v]
		// Close partition `next-1` once it holds its proportional share.
		for next < p && run >= target {
			bounds[next] = int32(v + 1)
			next++
			target = total * int64(next) / int64(p)
		}
	}
	for ; next < p; next++ {
		bounds[next] = int32(n)
	}
	return bounds
}

// WeightedBounds computes contiguous boundaries such that rank i's share
// of the total degree mass is proportional to weights[i] — the
// heterogeneous-cluster generalization of BalancedBounds.
func WeightedBounds(degrees []int64, weights []float64) []int32 {
	p := len(weights)
	n := len(degrees)
	var total int64
	for _, d := range degrees {
		total += d
	}
	var wsum float64
	for _, w := range weights {
		if w > 0 {
			wsum += w
		} else {
			wsum += 1
		}
	}
	bounds := make([]int32, p+1)
	bounds[p] = int32(n)
	var run int64
	var acc float64
	next := 1
	for v := 0; v < n && next < p; v++ {
		run += degrees[v]
		for next < p {
			w := weights[next-1]
			if w <= 0 {
				w = 1
			}
			target := acc + w
			if float64(run) < float64(total)*target/wsum {
				break
			}
			bounds[next] = int32(v + 1)
			acc = target
			next++
		}
	}
	for ; next < p; next++ {
		bounds[next] = int32(n)
	}
	return bounds
}

// Strategy selects the 1D partitioning rule.
type Strategy int

const (
	// ByDegree is the Gemini-style edge-balanced partitioning of §3.1.
	ByDegree Strategy = iota
	// ByVertex is the naive equal-vertex-count split, kept as the
	// baseline the degree-balanced strategy improves on (hub partitions
	// become edge-heavy under it).
	ByVertex
)

// ReadBounds is the read of §3.1 on the calling rank: the rank counts the
// endpoint incidences of its chunk of the edge list, allreduces the degree
// vector and derives the global partition boundaries (len P+1, identical
// on every rank) by strat, speed-weighted when speeds has P entries. It
// returns the bounds and the allreduced degrees, which equal
// graph.CSR.Degree of every vertex. All ranks must call it collectively
// with the same edge list. The work returned is that of the provisional
// equal-vertex slice the rank is modeled to read, one vertex per slice
// vertex. Every job kind then builds its range's view with
// boruvka.NewWindow(el, degrees, bounds[id], bounds[id+1]) and adds the
// window's NumEdges to this work as the extraction scan.
func ReadBounds(r *cluster.Rank, el *graph.EdgeList, strat Strategy, speeds []float64) ([]int32, []int64, cost.Work) {
	var w cost.Work
	p, id := r.P(), r.ID()
	n, m := int(el.N), len(el.Edges)
	// Provisional equal-vertex slice, as if each rank read a byte range of
	// the input file; its vertex count prices the read.
	w.VerticesProcessed += int64((id+1)*n/p - id*n/p)
	local := make([]int64, n)
	graph.AddDegrees(local, el.Edges[id*m/p:(id+1)*m/p])
	degrees := r.Allreduce(local, cluster.OpSum)
	switch {
	case strat == ByVertex:
		bounds := make([]int32, p+1)
		for i := 0; i <= p; i++ {
			bounds[i] = int32(i * n / p)
		}
		return bounds, degrees, w
	case len(speeds) == p:
		return WeightedBounds(degrees, speeds), degrees, w
	default:
		return BalancedBounds(degrees, p), degrees, w
	}
}
