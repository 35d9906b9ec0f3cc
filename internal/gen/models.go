package gen

import (
	"math/rand"

	"mndmst/internal/graph"
)

// BarabasiAlbert builds a preferential-attachment graph: vertices arrive
// one at a time and attach k edges to existing vertices with probability
// proportional to current degree. Produces power-law degree distributions
// with heavier tails than WebGraph's block-hub model, useful for stressing
// the degree-skew handling.
func BarabasiAlbert(n int32, k int, seed int64) *graph.EdgeList {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n}
	if n < 2 {
		return el
	}
	// targets holds one entry per endpoint of every edge: sampling
	// uniformly from it is degree-proportional sampling.
	targets := make([]int32, 0, 2*int(n)*k)
	add := func(u, v int32) {
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
		targets = append(targets, u, v)
	}
	add(0, 1)
	for v := int32(2); v < n; v++ {
		edges := k
		if int(v) < k {
			edges = int(v)
		}
		for e := 0; e < edges; e++ {
			u := targets[rng.Intn(len(targets))]
			add(v, u)
		}
	}
	return el
}

// WattsStrogatz builds a small-world graph: a ring lattice where every
// vertex connects to its k nearest neighbours (k even), with each edge
// rewired to a random endpoint with probability beta. High clustering,
// low diameter, near-uniform degrees — the opposite corner of the
// workload space from the power-law crawls.
func WattsStrogatz(n int32, k int, beta float64, seed int64) *graph.EdgeList {
	if k < 2 {
		k = 2
	}
	k -= k % 2
	if int32(k) >= n {
		k = int(n) - 1
		k -= k % 2
	}
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n}
	add := func(u, v int32) {
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	for u := int32(0); u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + int32(j)) % n
			if rng.Float64() < beta {
				v = rng.Int31n(n)
			}
			add(u, v)
		}
	}
	return el
}

// BinaryTree builds a complete binary tree over n vertices (vertex i's
// children are 2i+1 and 2i+2) — a worst case for Boruvka round counts
// relative to edge count.
func BinaryTree(n int32, seed int64) *graph.EdgeList { //lint:testonly fixture generator for tests
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n}
	for v := int32(1); v < n; v++ {
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: (v - 1) / 2, V: v, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	return el
}

// Complete builds the complete graph K_n (n ≤ 2^13 guarded by MaxEdges).
func Complete(n int32, seed int64) *graph.EdgeList { //lint:testonly fixture generator for tests
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n}
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			id := int32(len(el.Edges))
			el.Edges = append(el.Edges, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
		}
	}
	return el
}
