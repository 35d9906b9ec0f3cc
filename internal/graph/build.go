package graph

import "fmt"

// BuildCSR converts an edge list into CSR form. Every undirected edge
// (u,v) yields arcs u->v and v->u (a self-loop yields two identical arcs,
// next to each other).
// The conversion is a sequential two-pass counting sort in edge-index
// order, so each vertex's arcs come out in ascending edge id and the
// layout never depends on goroutine scheduling.
func BuildCSR(el *EdgeList) (*CSR, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	n := int(el.N)
	// Count pass: offsets[u+1] accumulates u's degree; the prefix sum then
	// turns degrees into offsets.
	offsets := make([]int64, n+1)
	AddDegrees(offsets[1:], el.Edges)
	for u := 1; u <= n; u++ {
		offsets[u] += offsets[u-1]
	}
	total := offsets[n]
	g := &CSR{
		N:       el.N,
		M:       int64(len(el.Edges)),
		Offsets: offsets,
		Dst:     make([]int32, total),
		W:       make([]uint64, total),
		EID:     make([]int32, total),
	}
	// Scatter pass: each vertex's cursor walks its slots in edge order.
	cursor := append([]int64(nil), offsets[:n]...)
	for i := range el.Edges {
		e := &el.Edges[i]
		a := cursor[e.U]
		cursor[e.U]++
		g.Dst[a], g.W[a], g.EID[a] = e.V, e.W, int32(i)
		b := cursor[e.V]
		cursor[e.V]++
		g.Dst[b], g.W[b], g.EID[b] = e.U, e.W, int32(i)
	}
	return g, nil
}

// MustBuildCSR is BuildCSR for known-good inputs (generators, tests); it
// panics on invalid input.
func MustBuildCSR(el *EdgeList) *CSR {
	g, err := BuildCSR(el)
	if err != nil {
		panic(fmt.Sprintf("graph: MustBuildCSR: %v", err))
	}
	return g
}

// TotalWeight sums all edge weights of the list.
func (el *EdgeList) TotalWeight() uint64 { //lint:testonly weight checksum the graph tests compare
	var s uint64
	for _, e := range el.Edges {
		s += e.W
	}
	return s
}
