package graph

import "math/rand"

// InducedSubgraph builds the subgraph induced by the given vertex set.
// Vertices are renumbered 0..len(verts)-1 in the order given; edges keep
// their weights but receive fresh ids. Duplicate vertices in verts are an
// error surfaced through Validate on the result.
func InducedSubgraph(g *CSR, verts []int32) *EdgeList {
	remap := make(map[int32]int32, len(verts))
	for i, v := range verts {
		remap[v] = int32(i)
	}
	el := &EdgeList{N: int32(len(verts))}
	var loopSeen map[int32]bool // self-loops appear as two identical arcs
	for _, u := range verts {
		nu := remap[u]
		lo, hi := g.Arcs(u)
		for a := lo; a < hi; a++ {
			v := g.Dst[a]
			nv, ok := remap[v]
			if !ok {
				continue
			}
			if u == v {
				if loopSeen == nil {
					loopSeen = make(map[int32]bool)
				}
				if loopSeen[g.EID[a]] {
					continue
				}
				loopSeen[g.EID[a]] = true
			} else if nu > nv {
				continue // emit each proper edge once, from the smaller new id
			}
			el.Edges = append(el.Edges, Edge{U: nu, V: nv, W: g.W[a], ID: int32(len(el.Edges))})
		}
	}
	return el
}

// SampleInducedSubgraph draws a uniform random vertex sample of the given
// fraction (clamped to [0,1]) and returns the induced subgraph, as used by
// the HyPar runtime to estimate the CPU:GPU performance ratio (§4.3.1).
func SampleInducedSubgraph(g *CSR, fraction float64, rng *rand.Rand) *EdgeList {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	k := int(float64(g.N) * fraction)
	if k < 1 && g.N > 0 {
		k = 1
	}
	perm := rng.Perm(int(g.N))
	verts := make([]int32, k)
	for i := 0; i < k; i++ {
		verts[i] = int32(perm[i])
	}
	return InducedSubgraph(g, verts)
}
