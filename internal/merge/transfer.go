package merge

import "mndmst/internal/graph"

// SplitEdges divides a rank's edge list when the components in sent move
// away. Every edge incident to a sent component travels with the payload;
// every edge incident to a kept owned component stays. An edge between a
// kept and a sent component does both — the invariant is that an edge copy
// lives at each rank owning one of its endpoints. An edge with neither
// endpoint in kept or sent is in neither list.
//
// kept and sent are each sorted, as the prefix and suffix SplitSegment
// returns. Membership is a one-byte mark per id of their joint span. The
// split copies nothing: it reorders edges in place into [kept only | both
// | sent only | neither] and returns two overlapping slices of it,
// keptEdges from the start through the both edges and movedEdges from the
// both edges through the sent-only ones. keptEdges keeps edges' capacity,
// so whatever is appended to it overwrites the sent-only edges: encode
// movedEdges first, as ExchangeSegments does. The order within each
// region is unspecified.
func SplitEdges(edges []graph.Edge, kept, sent []int32) (keptEdges, movedEdges []graph.Edge) {
	if len(kept)+len(sent) == 0 {
		return edges[:0], nil
	}
	const isKept, isSent = 1, 2
	r := emptyRange
	for _, s := range [][]int32{kept, sent} {
		if len(s) > 0 {
			r.add(s[0])
			r.add(s[len(s)-1])
		}
	}
	mark := make([]uint8, int64(r.hi)-int64(r.lo)+1)
	for _, c := range kept {
		mark[c-r.lo] |= isKept
	}
	for _, c := range sent {
		mark[c-r.lo] |= isSent
	}
	// of returns the marks of both endpoints of e; an id outside the span
	// is neither kept nor sent.
	of := func(e *graph.Edge) uint8 {
		var m uint8
		if x := uint32(e.U - r.lo); x < uint32(len(mark)) {
			m = mark[x]
		}
		if x := uint32(e.V - r.lo); x < uint32(len(mark)) {
			m |= mark[x]
		}
		return m
	}
	// A three-way partition into [kept only | both | the rest], then a
	// two-way one of the rest into [sent only | neither].
	lo, mid, hi := 0, 0, len(edges)
	for mid < hi {
		switch of(&edges[mid]) {
		case isKept:
			edges[lo], edges[mid] = edges[mid], edges[lo]
			lo++
			mid++
		case isKept | isSent:
			mid++
		default:
			hi--
			edges[mid], edges[hi] = edges[hi], edges[mid]
		}
	}
	end := hi
	for i := hi; i < len(edges); i++ {
		if of(&edges[i]) == isSent {
			edges[end], edges[i] = edges[i], edges[end]
			end++
		}
	}
	return edges[:mid], edges[lo:end:end]
}
