// Package gen generates the synthetic workload graphs used throughout the
// reproduction. The paper evaluates on six real graphs (Table 2) that range
// from 57M to 6.6B edges; those inputs are not redistributable and far
// exceed a single-machine reproduction, so gen provides scaled-down
// synthetic analogues with the same structural shape: a near-planar
// high-diameter generator for road networks and an R-MAT power-law
// generator for web crawls. See DESIGN.md §2 for the substitution argument.
//
// All generators assign distinct edge weights via graph.MakeWeight, so each
// generated graph has a unique minimum spanning forest.
package gen

import (
	"fmt"
	"math/rand"

	"mndmst/internal/graph"
)

// Grid2D builds an r×c grid with unit-lattice connectivity plus, with
// probability diagProb per cell, one diagonal shortcut. The result is
// connected, has average degree just under 4 (≈2.4 once scaled by the
// perturbation deleting prob, see RoadNetwork) and diameter Θ(r+c) — the
// structural signature of road_usa.
func Grid2D(r, c int, diagProb float64, seed int64) *graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: int32(r * c)}
	add := func(u, v int32) {
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	at := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				add(at(i, j), at(i, j+1))
			}
			if i+1 < r {
				add(at(i, j), at(i+1, j))
			}
			if i+1 < r && j+1 < c && rng.Float64() < diagProb {
				add(at(i, j), at(i+1, j+1))
			}
		}
	}
	return el
}

// RoadNetwork builds a road_usa-like graph: a grid with a fraction of the
// lattice edges removed (keeping a spanning tree so the graph stays
// connected) to bring the average degree down to ~2.4 and stretch the
// diameter. Kept edges re-pack their index, a monotone map: same forests.
func RoadNetwork(n int, seed int64) *graph.EdgeList {
	r := isqrt(n)
	if r < 2 {
		r = 2
	}
	c := (n + r - 1) / r
	full := Grid2D(r, c, 0.05, seed)
	rng := rand.New(rand.NewSource(seed + 1))

	// Keep a random spanning tree, then keep each remaining edge with
	// probability keep, targeting avg degree ≈ 2.4 (i.e. E ≈ 1.2·V).
	order := rng.Perm(len(full.Edges))
	inTree := make([]bool, len(full.Edges))
	ds := newSimpleDSU(int(full.N))
	for _, i := range order {
		e := full.Edges[i]
		if ds.union(e.U, e.V) {
			inTree[i] = true
		}
	}
	targetE := int(float64(full.N) * 1.2)
	extraBudget := targetE - int(full.N) + 1
	out := &graph.EdgeList{N: full.N}
	for i, e := range full.Edges {
		take := inTree[i]
		if !take && extraBudget > 0 && rng.Float64() < 0.5 {
			take = true
			extraBudget--
		}
		if take {
			e.W = graph.MakeWeight(graph.WeightRand(e.W), int32(len(out.Edges)))
			out.Edges = append(out.Edges, e)
		}
	}
	return out
}

// RMAT builds a power-law graph with 2^scale candidate vertices folded onto
// n vertices, m undirected edges, using the Graph500 partition
// probabilities (0.57, 0.19, 0.19, 0.05). Duplicate and self edges are
// kept: the paper's merge phase exists precisely to remove self and
// multi edges, so the workload should contain them.
func RMAT(n int32, m int, seed int64) *graph.EdgeList {
	const a, b, c = 0.57, 0.19, 0.19
	scale := 0
	for 1<<scale < int(n) {
		scale++
	}
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, 0, m)}
	for i := 0; i < m; i++ {
		var u, v int
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// stay in (0,0)
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		uu, vv := int32(u)%n, int32(v)%n
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: uu, V: vv, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	return el
}

// ErdosRenyi builds a uniform random multigraph with n vertices and m
// undirected edges.
func ErdosRenyi(n int32, m int, seed int64) *graph.EdgeList { //lint:testonly fixture generator for tests
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, 0, m)}
	for i := 0; i < m; i++ {
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{
			U: rng.Int31n(n), V: rng.Int31n(n),
			W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id),
		})
	}
	return el
}

// ConnectedRandom builds a connected random graph: a random spanning tree
// over n vertices plus extra uniform edges up to m total. Panics if m < n-1.
func ConnectedRandom(n int32, m int, seed int64) *graph.EdgeList { //lint:testonly fixture generator for tests
	if int64(m) < int64(n)-1 {
		panic(fmt.Sprintf("gen: ConnectedRandom needs m >= n-1 (n=%d m=%d)", n, m))
	}
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, 0, m)}
	add := func(u, v int32) {
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	perm := rng.Perm(int(n))
	for i := 1; i < int(n); i++ {
		add(int32(perm[rng.Intn(i)]), int32(perm[i]))
	}
	for len(el.Edges) < m {
		add(rng.Int31n(n), rng.Int31n(n))
	}
	return el
}

// Path builds the path 0-1-...-n-1.
func Path(n int32, seed int64) *graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n}
	for i := int32(0); i+1 < n; i++ {
		el.Edges = append(el.Edges, graph.Edge{U: i, V: i + 1, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), i)})
	}
	return el
}

// Cycle builds the n-cycle.
func Cycle(n int32, seed int64) *graph.EdgeList { //lint:testonly fixture generator for tests
	el := Path(n, seed)
	if n >= 3 {
		rng := rand.New(rand.NewSource(seed + 1))
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: n - 1, V: 0, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	return el
}

// Star builds a star with center 0 and n-1 leaves.
func Star(n int32, seed int64) *graph.EdgeList { //lint:testonly fixture generator for tests
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n}
	for i := int32(1); i < n; i++ {
		el.Edges = append(el.Edges, graph.Edge{U: 0, V: i, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), i-1)})
	}
	return el
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// simpleDSU is a tiny private union-find to avoid importing internal/dsu
// (which would make gen depend on parutil for no benefit here).
type simpleDSU struct{ p []int32 }

func newSimpleDSU(n int) *simpleDSU {
	d := &simpleDSU{p: make([]int32, n)}
	for i := range d.p {
		d.p[i] = int32(i)
	}
	return d
}

func (d *simpleDSU) find(x int32) int32 {
	for d.p[x] != x {
		d.p[x] = d.p[d.p[x]]
		x = d.p[x]
	}
	return x
}

func (d *simpleDSU) union(a, b int32) bool {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return false
	}
	d.p[rb] = ra
	return true
}
