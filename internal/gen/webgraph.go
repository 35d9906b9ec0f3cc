package gen

import (
	"math"
	"math/rand"

	"mndmst/internal/graph"
)

// WebGraph generates a web-crawl-like workload with the two properties the
// paper's evaluation depends on (§3.1, Table 2):
//
//   - natural vertex locality: crawls order URLs lexicographically, so most
//     hyperlinks connect nearby ids and contiguous 1D partitioning keeps
//     them internal ("many large-scale real world networks possess natural
//     locality", §3.1). A `locality` fraction of edges connect endpoints a
//     geometrically-distributed distance apart.
//   - power-law degrees: the remaining edges attach to hub vertices drawn
//     with density ∝ rank^(-hubBias) within a local neighbourhood block,
//     giving max degrees orders of magnitude above the average while
//     keeping even hub edges mostly intra-partition.
//
// n is the vertex count, m the number of undirected edges (duplicates and
// occasional self-loops are kept — the merge phase removes them, as in the
// paper).
func WebGraph(n int32, m int, locality float64, seed int64) *graph.EdgeList {
	if locality < 0 {
		locality = 0
	}
	if locality > 1 {
		locality = 1
	}
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: n, Edges: make([]graph.Edge, 0, m)}
	// Mean local link distance: short, so 1D partitions keep most edges.
	meanDist := 8.0
	// Hub block: hubs are the lowest ids of each block of size hubBlock, so
	// hub edges stay near their source most of the time.
	hubBlock := int32(4096)
	if hubBlock > n {
		hubBlock = n
	}
	const hubBias = 4
	for i := 0; i < m; i++ {
		u := rng.Int31n(n)
		var v int32
		if rng.Float64() < locality {
			// Geometric hop, random direction.
			d := int32(math.Floor(rng.ExpFloat64()*meanDist)) + 1
			if rng.Intn(2) == 0 {
				d = -d
			}
			v = u + d
			if v < 0 {
				v = -v
			}
			if v >= n {
				v = 2*(n-1) - v
			}
			if v < 0 || v >= n { // hop longer than the graph (tiny n)
				v = ((v % n) + n) % n
			}
		} else {
			// Hub edge: pick a hub near u's block with power-law rank.
			blockStart := (u / hubBlock) * hubBlock
			r := rng.Float64()
			hubRank := int32(math.Pow(r, hubBias) * float64(hubBlock))
			v = blockStart + hubRank
			if v >= n {
				v = n - 1
			}
		}
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	return el
}
