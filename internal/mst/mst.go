// Package mst provides reference minimum-spanning-forest algorithms —
// Kruskal, Prim, and sequential Boruvka — plus forest verification. With the
// distinct edge weights guaranteed by package graph, the MSF is unique, so
// these implementations serve as exact ground truth for the parallel and
// distributed implementations in the rest of the repository.
package mst

import (
	"container/heap"
	"slices"
	"sort"

	"mndmst/internal/dsu"
	"mndmst/internal/graph"
)

// Forest is a minimum spanning forest: the ids of the chosen edges, their
// total weight, and the number of connected components they span.
type Forest struct {
	EdgeIDs     []int32
	TotalWeight uint64
	Components  int
}

// ForestOf is the forest of el formed by the edges ids, as a distributed
// run gathers them from its ranks. It sorts ids in place and keeps them,
// sums their weights, and counts N − len(ids) components: a forest's
// edges close no cycle.
func ForestOf(el *graph.EdgeList, ids []int32) *Forest {
	graph.SortEdgeIDs(ids)
	f := &Forest{EdgeIDs: ids, Components: int(el.N) - len(ids)}
	for _, id := range ids {
		f.TotalWeight += el.Edges[id].W
	}
	return f
}

// sortIDs normalizes the edge order so forests compare by value.
func (f *Forest) sortIDs() {
	slices.Sort(f.EdgeIDs)
}

// Equal reports whether two forests choose the same edge set.
func (f *Forest) Equal(g *Forest) bool {
	if f.TotalWeight != g.TotalWeight || len(f.EdgeIDs) != len(g.EdgeIDs) {
		return false
	}
	f.sortIDs()
	g.sortIDs()
	for i := range f.EdgeIDs {
		if f.EdgeIDs[i] != g.EdgeIDs[i] {
			return false
		}
	}
	return true
}

// Kruskal computes the MSF by sorting all edges and greedily joining
// components.
func Kruskal(el *graph.EdgeList) *Forest {
	order := make([]int32, len(el.Edges))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return graph.WeightLess(el.Edges[order[i]].W, el.Edges[order[j]].W)
	})
	d := dsu.New(int(el.N))
	f := &Forest{}
	for _, i := range order {
		e := &el.Edges[i]
		if e.U == e.V {
			continue
		}
		if d.Union(e.U, e.V) {
			f.EdgeIDs = append(f.EdgeIDs, i)
			f.TotalWeight += e.W
			if len(f.EdgeIDs) == int(el.N)-1 {
				break
			}
		}
	}
	f.Components = int(el.N) - len(f.EdgeIDs)
	f.sortIDs()
	return f
}

// primItem is a heap entry: a candidate arc into the tree.
type primItem struct {
	w   uint64
	arc int64
	to  int32
}

type primHeap []primItem

func (h primHeap) Len() int            { return len(h) }
func (h primHeap) Less(i, j int) bool  { return graph.WeightLess(h[i].w, h[j].w) }
func (h primHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *primHeap) Push(x interface{}) { *h = append(*h, x.(primItem)) }
func (h *primHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Prim computes the MSF with a lazy binary-heap Prim from every unvisited
// vertex (restarting per component).
func Prim(g *graph.CSR) *Forest { //lint:testonly reference MST the Kruskal tests cross-check
	visited := make([]bool, g.N)
	f := &Forest{}
	var h primHeap
	for s := int32(0); s < g.N; s++ {
		if visited[s] {
			continue
		}
		f.Components++
		visited[s] = true
		pushArcs(g, s, visited, &h)
		for h.Len() > 0 {
			it := heap.Pop(&h).(primItem)
			if visited[it.to] {
				continue
			}
			visited[it.to] = true
			f.EdgeIDs = append(f.EdgeIDs, g.EID[it.arc])
			f.TotalWeight += it.w
			pushArcs(g, it.to, visited, &h)
		}
	}
	f.sortIDs()
	return f
}

func pushArcs(g *graph.CSR, u int32, visited []bool, h *primHeap) {
	lo, hi := g.Arcs(u)
	for a := lo; a < hi; a++ {
		if !visited[g.Dst[a]] {
			heap.Push(h, primItem{w: g.W[a], arc: a, to: g.Dst[a]})
		}
	}
}

// Boruvka computes the MSF with the classic sequential Boruvka iteration:
// per round, every component selects its lightest outgoing edge, then the
// selected edges are contracted.
func Boruvka(el *graph.EdgeList) *Forest { //lint:testonly reference MST the Kruskal tests cross-check
	n := int(el.N)
	d := dsu.New(n)
	f := &Forest{}
	best := make([]int32, n) // per-root best edge index, -1 if none
	for {
		for i := range best {
			best[i] = -1
		}
		found := false
		for i := range el.Edges {
			e := &el.Edges[i]
			ru, rv := d.Find(e.U), d.Find(e.V)
			if ru == rv {
				continue
			}
			found = true
			for _, r := range [2]int32{ru, rv} {
				if best[r] < 0 || graph.WeightLess(e.W, el.Edges[best[r]].W) {
					best[r] = int32(i)
				}
			}
		}
		if !found {
			break
		}
		for r, bi := range best {
			if bi < 0 || d.Find(int32(r)) != int32(r) {
				// Either no outgoing edge or this root was absorbed earlier
				// in this contraction sweep; its best edge may already be
				// taken via the other endpoint, which is fine: we re-check
				// with Union below when visiting that endpoint's root.
				if bi < 0 {
					continue
				}
			}
			e := &el.Edges[bi]
			if d.Union(e.U, e.V) {
				f.EdgeIDs = append(f.EdgeIDs, bi)
				f.TotalWeight += e.W
			}
		}
	}
	f.Components = n - len(f.EdgeIDs)
	f.sortIDs()
	return f
}
