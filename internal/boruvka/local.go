// Package boruvka implements the device-level parallel Boruvka kernel of
// §3.2/§3.5: a data-driven, worklist-based minimum-spanning-forest kernel
// that runs on one device's partition and honours the exception conditions
// of the HyPar API — a component whose lightest outgoing edge leaves the
// partition (a cut edge) is not expanded, so independent per-device
// computations never contract an edge that could be beaten by a remote one.
//
// The kernel operates on a Local view: a set of globally-named vertices
// plus edges whose endpoints may be local or external (ghost). A first
// iteration view is a window over a contiguous vertex range of the shared
// CSR (NewWindow); every later merge stage builds its view from the
// component graph's edge list (NewLocal, vertices = component
// representatives).
package boruvka

import (
	"fmt"
	"slices"

	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// Local is one device's view of its partition: the global ids of the local
// vertices and a CSR of arcs out of them. An arc carries the global edge id
// and weight of its undirected edge; a head outside the view is external
// (ghost) and stored as -1.
type Local struct {
	IDs []int32 // sorted ascending, unique
	// NumEdges counts the view's undirected edges (self-loops included),
	// each once; NumCut counts those with exactly one local endpoint.
	NumEdges, NumCut int64

	// CSR over local indices; arcs exist only from local endpoints.
	off []int64
	dst []int32 // local index of head, or -1 if external
	eid []int32 // global edge id
	w   []uint64
}

// NewLocal builds a Local view from an edge list with global endpoint
// names. IDs must be unique; they are sorted in place. Every edge must
// have at least one local endpoint.
func NewLocal(ids []int32, edges []wire.WEdge) (*Local, error) {
	slices.Sort(ids)
	index := make(map[int32]int32, len(ids))
	for i, id := range ids {
		if i > 0 && ids[i-1] == id {
			return nil, fmt.Errorf("boruvka: duplicate local id %d", id)
		}
		index[id] = int32(i)
	}
	l := &Local{IDs: ids, NumEdges: int64(len(edges))}
	n := len(ids)
	counts := make([]int64, n+1)
	for i := range edges {
		e := &edges[i]
		lu, okU := index[e.U]
		lv, okV := index[e.V]
		if !okU && !okV {
			return nil, fmt.Errorf("boruvka: edge %d (%d-%d) has no local endpoint", i, e.U, e.V)
		}
		if okU != okV {
			l.NumCut++
		}
		if okU {
			counts[lu+1]++
		}
		if okV && e.U != e.V { // self-loop on a local vertex: one arc only
			counts[lv+1]++
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	total := counts[n]
	l.off = counts
	l.dst = make([]int32, total)
	l.eid = make([]int32, total)
	l.w = make([]uint64, total)
	cursor := make([]int64, n)
	put := func(tail int32, head int32, headLocal bool, e *wire.WEdge) {
		a := l.off[tail] + cursor[tail]
		cursor[tail]++
		if headLocal {
			l.dst[a] = index[head]
		} else {
			l.dst[a] = -1
		}
		l.eid[a] = e.ID
		l.w[a] = e.W
	}
	for i := range edges {
		e := &edges[i]
		lu, okU := index[e.U]
		lv, okV := index[e.V]
		if okU {
			put(lu, e.V, okV, e)
		}
		if okV && e.U != e.V {
			put(lv, e.U, okU, e)
		}
	}
	return l, nil
}

// NewWindow builds the view of the contiguous vertex range [lo, hi) of g
// straight from g's arcs, with no global→local index: the local index of
// vertex v is v − lo, and a head outside the range is external. The view
// equals NewLocal over the range's ids and graph.VertexRangeSubgraph(g,
// lo, hi) up to the order of each vertex's arcs, which the kernel's result
// does not depend on. A self-loop keeps one of its two arcs; this relies
// on BuildCSR placing the two arcs next to each other.
func NewWindow(g *graph.CSR, lo, hi int32) *Local {
	n := int(hi - lo)
	l := &Local{IDs: make([]int32, n), off: make([]int64, n+1)}
	// twin reports whether arc a is the second arc of a self-loop at u.
	twin := func(u int32, a int64) bool {
		return a > g.Offsets[u] && g.Dst[a-1] == u && g.EID[a-1] == g.EID[a]
	}
	// Count pass: exact per-vertex arc counts plus the edge counters.
	for i := 0; i < n; i++ {
		u := lo + int32(i)
		l.IDs[i] = u
		kept := g.Degree(u)
		alo, ahi := g.Arcs(u)
		for a := alo; a < ahi; a++ {
			switch v := g.Dst[a]; {
			case v == u:
				if twin(u, a) {
					kept--
				} else {
					l.NumEdges++
				}
			case v < lo || v >= hi:
				l.NumEdges++
				l.NumCut++
			case u < v:
				l.NumEdges++
			}
		}
		l.off[i+1] = l.off[i] + kept
	}
	total := l.off[n]
	l.dst = make([]int32, total)
	l.eid = make([]int32, total)
	l.w = make([]uint64, total)
	// Fill pass: copy the arcs, translating heads to local indices.
	k := int64(0)
	for u := lo; u < hi; u++ {
		alo, ahi := g.Arcs(u)
		for a := alo; a < ahi; a++ {
			v := g.Dst[a]
			if v == u && twin(u, a) {
				continue
			}
			if v >= lo && v < hi {
				l.dst[k] = v - lo
			} else {
				l.dst[k] = -1
			}
			l.eid[k] = g.EID[a]
			l.w[k] = g.W[a]
			k++
		}
	}
	return l
}

// N reports the number of local vertices.
func (l *Local) N() int { return len(l.IDs) }

// NumArcs reports the number of local arcs.
func (l *Local) NumArcs() int64 { return int64(len(l.dst)) }

// Degree reports the number of arcs out of local vertex u.
func (l *Local) Degree(u int) int64 { return l.off[u+1] - l.off[u] }

// Border reports whether local vertex u has a cut edge.
func (l *Local) Border(u int) bool {
	for a := l.off[u]; a < l.off[u+1]; a++ {
		if l.dst[a] < 0 {
			return true
		}
	}
	return false
}

// degreeSkew returns max/avg local degree (1 for empty or regular views).
func (l *Local) degreeSkew() float64 {
	n := l.N()
	if n == 0 || len(l.dst) == 0 {
		return 1
	}
	var max int64
	for u := 0; u < n; u++ {
		if d := l.Degree(u); d > max {
			max = d
		}
	}
	avg := float64(len(l.dst)) / float64(n)
	if avg <= 0 {
		return 1
	}
	s := float64(max) / avg
	if s < 1 {
		return 1
	}
	return s
}
