// Package graph provides the weighted undirected graph substrate shared by
// every algorithm in the repository: an edge-list form used by generators,
// loaders and the MND-MST ranks, which build their own windows from it
// (§3.1 of the paper), and a CSR (compressed sparse row) form used by the
// applications, the BSP baseline and the reference algorithms.
//
// Edge weights are uint64 values constructed so that every undirected edge
// in a graph has a distinct weight (see MakeWeight). Distinct weights make
// the minimum spanning forest unique, which lets the test suite compare
// implementations by exact total weight and edge set.
package graph

import "fmt"

// MaxEdges is the largest number of undirected edges a single graph may
// hold, bounded by the edge-id bits packed into weights.
const MaxEdges = 1 << 26

// weightRandBits is the number of random bits in a weight; the low eidBits
// carry the edge id that makes weights distinct.
const (
	eidBits        = 26
	eidMask        = MaxEdges - 1
	weightRandBits = 16
)

// MakeWeight packs a 16-bit random weight and the canonical undirected edge
// id into a single distinct uint64 key. Lower is lighter; the edge id is a
// deterministic tie-break, so all weights in one graph are distinct as long
// as edge ids are.
func MakeWeight(rand16 uint16, eid int32) uint64 {
	return uint64(rand16)<<eidBits | uint64(uint32(eid)&eidMask)
}

// WeightRand extracts the random part of a packed weight.
func WeightRand(w uint64) uint16 { return uint16(w >> eidBits) }

// EdgeID extracts the edge id packed into a weight.
func EdgeID(w uint64) int32 { return int32(w & eidMask) }

// Edge is one undirected weighted edge. U and V are vertex ids, or
// component ids once the merge relabels them. The packed weight W holds
// the edge's canonical id (EdgeID), its index in the graph's
// EdgeList.Edges, so an edge needs no id field.
type Edge struct {
	U, V int32
	W    uint64
}

// EdgeBytes is the size of one Edge, in memory and as the record
// AppendEdge encodes, in .mnd files and on the wire alike.
const EdgeBytes = 16

// EdgeList is a graph in coordinate form: a vertex count plus undirected
// edges. Self-loops are permitted in the list but never enter an MST;
// parallel edges are permitted and resolved by weight.
type EdgeList struct {
	N     int32
	Edges []Edge
}

// Validate checks structural invariants: endpoints in range, at most
// MaxEdges edges, and weights packing their index (MakeWeight(r, i)).
func (el *EdgeList) Validate() error {
	if el.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", el.N)
	}
	if len(el.Edges) > MaxEdges {
		return fmt.Errorf("graph: %d edges exceeds MaxEdges=%d", len(el.Edges), MaxEdges)
	}
	for i, e := range el.Edges {
		if uint32(e.U) >= uint32(el.N) || uint32(e.V) >= uint32(el.N) {
			return fmt.Errorf("graph: edge %d (%d-%d) out of range [0,%d)", i, e.U, e.V, el.N)
		}
		if e.W != MakeWeight(WeightRand(e.W), int32(i)) {
			return fmt.Errorf("graph: edge %d weight %#x does not pack its index", i, e.W)
		}
	}
	return nil
}

// AddDegrees adds the endpoint incidences of edges to deg, one for each
// endpoint, so a self-loop adds two: over all of a graph's edges this is
// the CSR degree of every vertex.
func AddDegrees(deg []int64, edges []Edge) {
	for i := range edges {
		deg[edges[i].U]++
		deg[edges[i].V]++
	}
}

// Degrees returns the CSR degree of every vertex of el.
func (el *EdgeList) Degrees() []int64 {
	deg := make([]int64, el.N)
	AddDegrees(deg, el.Edges)
	return deg
}

// CSR is the compressed-sparse-row form of an undirected graph: every
// undirected edge appears as two directed arcs. Arc i of vertex u lives at
// positions Offsets[u] <= i < Offsets[u+1] of the arc arrays.
type CSR struct {
	N       int32
	M       int64   // number of undirected edges
	Offsets []int64 // len N+1
	Dst     []int32 // arc head
	W       []uint64
	EID     []int32 // canonical undirected edge id of each arc
}

// NumArcs reports the number of directed arcs (2*M for loop-free graphs;
// self-loops contribute two identical arcs as well for symmetry).
func (g *CSR) NumArcs() int64 { return int64(len(g.Dst)) }

// Degree reports the number of arcs out of u.
func (g *CSR) Degree(u int32) int64 { return g.Offsets[u+1] - g.Offsets[u] }

// Arcs returns the arc index range [lo, hi) of vertex u.
func (g *CSR) Arcs(u int32) (lo, hi int64) { return g.Offsets[u], g.Offsets[u+1] }
