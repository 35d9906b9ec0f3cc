package merge

import "mndmst/internal/graph"

// SplitEdges divides a rank's edge list when the components in sent move
// away. Every edge incident to a sent component travels with the payload;
// every edge incident to a kept owned component stays. An edge between a
// kept and a sent component does both — the invariant is that an edge copy
// lives at each rank owning one of its endpoints.
//
// kept and sent are each sorted, as the prefix and suffix SplitSegment
// returns. Membership is a one-byte mark per id of their joint span, and a
// count pass sizes both outputs exactly; an empty output is nil.
func SplitEdges(edges []graph.Edge, kept, sent []int32) (keptEdges, movedEdges []graph.Edge) {
	if len(kept)+len(sent) == 0 {
		return nil, nil
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
	var nKept, nMoved int
	for i := range edges {
		m := of(&edges[i])
		nKept += int(m & isKept)
		nMoved += int(m >> 1) // the isSent bit
	}
	if nKept > 0 {
		keptEdges = make([]graph.Edge, 0, nKept)
	}
	if nMoved > 0 {
		movedEdges = make([]graph.Edge, 0, nMoved)
	}
	for i := range edges {
		m := of(&edges[i])
		if m&isSent != 0 {
			movedEdges = append(movedEdges, edges[i])
		}
		if m&isKept != 0 {
			keptEdges = append(keptEdges, edges[i])
		}
	}
	return keptEdges, movedEdges
}
