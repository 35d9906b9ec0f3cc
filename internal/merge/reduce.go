// Package merge implements the data-reduction and hierarchical-merging
// machinery of §3.3/§3.4: self-edge removal, ghost parent-id exchange,
// multi-edge removal through the pair-min hash table, component segment
// formation, ring-based segment exchange within groups, and the transfer
// encoding used when components move between ranks.
//
// Component ids are global vertex ids (the minimum original vertex id in
// the component), so they remain globally unique across every merge level.
// The packages maintains one invariant throughout: an edge record lives at
// exactly the ranks that own one of its endpoint components, and endpoint
// labels are refreshed by a parent-delta exchange after every merge round,
// so no rank ever computes with stale component ids.
package merge

import (
	"cmp"
	"slices"

	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/hashtable"
	"mndmst/internal/parutil"
	"mndmst/internal/wire"
)

// Relabel rewrites edge endpoints through the parent function and drops
// self edges (both endpoints in the same component) in place, returning the
// surviving edges, the number of self edges removed, and the work
// performed. The input slice is reused.
func Relabel(edges []wire.WEdge, parentOf func(int32) int32) (kept []wire.WEdge, selfEdges int, w cost.Work) {
	out := edges[:0]
	for i := range edges {
		e := edges[i]
		e.U = parentOf(e.U)
		e.V = parentOf(e.V)
		if e.U == e.V {
			selfEdges++
			continue
		}
		out = append(out, e)
	}
	w.EdgesScanned = int64(len(edges))
	return out, selfEdges, w
}

// RelabelWindow is Relabel fused with the extraction of the vertex range
// [lo, hi) of g: it walks the range's arcs in graph.VertexRangeSubgraph
// order and emits every edge whose relabelled endpoints differ, without
// materialising the range's edge list first. parent[v-lo] is the
// component of vertex v inside the range; ghost maps the endpoints
// outside it. Self-loops are self edges and never survive. The scan
// covers the range's edges (boruvka.Local.NumEdges of its window), which
// is the EdgesScanned the caller charges for it.
func RelabelWindow(g *graph.CSR, lo, hi int32, parent []int32, ghost func(int32) int32) []wire.WEdge {
	var out []wire.WEdge
	for u := lo; u < hi; u++ {
		pu := parent[u-lo]
		alo, ahi := g.Arcs(u)
		for a := alo; a < ahi; a++ {
			v := g.Dst[a]
			var pv int32
			if v >= lo && v < hi {
				if u >= v {
					continue // internal edges once, from the smaller endpoint
				}
				pv = parent[v-lo]
			} else {
				pv = ghost(v)
			}
			if pu != pv {
				out = append(out, wire.WEdge{U: pu, V: pv, W: g.W[a], ID: g.EID[a]})
			}
		}
	}
	return out
}

// RemoveMultiEdges keeps only the lightest edge between every pair of
// components, using the sharded pair-min hash table of §3.3 updated in
// parallel. The result is sorted by (U, V) for determinism.
func RemoveMultiEdges(edges []wire.WEdge) ([]wire.WEdge, cost.Work) {
	var w cost.Work
	t := hashtable.NewPairMinTable()
	parutil.For(len(edges), 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			t.Update(e.U, e.V, e)
		}
	})
	out := t.Edges()
	slices.SortFunc(out, func(a, b wire.WEdge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	w.HashOps = t.Ops()
	w.EdgesScanned = int64(len(edges))
	return out, w
}

// DedupeByID removes duplicate copies of the same original edge (same ID),
// which appear when both endpoint owners ship their copy to one rank. The
// result is sorted by ID.
func DedupeByID(edges []wire.WEdge) []wire.WEdge {
	slices.SortFunc(edges, func(a, b wire.WEdge) int { return cmp.Compare(a.ID, b.ID) })
	out := edges[:0]
	for i := range edges {
		if i > 0 && edges[i].ID == edges[i-1].ID {
			continue
		}
		out = append(out, edges[i])
	}
	return out
}

// Delta is one parent update: component Old merged into component New.
type Delta struct{ Old, New int32 }

// DeltasFromParents extracts the parent updates a merge round produced:
// every id whose parent differs from itself. ids and parents correspond
// positionally (the boruvka kernel's Local.IDs and Result.Parent). The
// result is sorted by Old.
func DeltasFromParents(ids, parents []int32) []Delta {
	var ds []Delta
	for i, id := range ids {
		if parents[i] != id {
			ds = append(ds, Delta{Old: id, New: parents[i]})
		}
	}
	slices.SortFunc(ds, func(a, b Delta) int { return cmp.Compare(a.Old, b.Old) })
	return ds
}

// Representatives applies the parent function to a component list and
// returns the sorted unique representatives — the components still owned
// after a merge round (every merge happens at the owning rank, so a merged
// cluster's representative is always local).
func Representatives(owned []int32, pf func(int32) int32) []int32 {
	seen := make(map[int32]bool, len(owned))
	out := make([]int32, 0, len(owned))
	for _, c := range owned {
		p := pf(c)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// ApplyDeltas builds a parent function from local and remote deltas over a
// base identity. Chains cannot occur within one round (each rank maps old
// ids directly to final representatives), so a single map lookup suffices.
func ApplyDeltas(all ...[]Delta) func(int32) int32 {
	m := make(map[int32]int32)
	for _, ds := range all {
		for _, d := range ds {
			m[d.Old] = d.New
		}
	}
	return func(v int32) int32 {
		if p, ok := m[v]; ok {
			return p
		}
		return v
	}
}
