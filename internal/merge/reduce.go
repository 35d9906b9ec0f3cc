// Package merge implements the data-reduction and hierarchical-merging
// machinery of §3.3/§3.4: self-edge removal, ghost parent-id exchange,
// multi-edge removal, component segment formation, ring-based segment
// exchange within groups, and the transfer encoding used when components
// move between ranks.
//
// The §3.3 pair-min hash table is built into the relabel walk: Relabel
// keeps the lightest edge of every component pair in an open-addressing
// table of indices into its output, so the relabelled edge list is never
// materialised and nothing is sorted.
//
// The kernel's Result does not depend on the order of a view's edges, so
// Relabel emits in first-arrival order and DedupeByID filters in place, in
// arrival order, rather than sort.
//
// Component ids are global vertex ids (the minimum original vertex id in
// the component), so they remain globally unique across every merge level.
// The package maintains one invariant throughout: an edge record lives at
// exactly the ranks that own one of its endpoint components, and endpoint
// labels are refreshed by a parent-delta exchange after every merge round,
// so no rank ever computes with stale component ids.
package merge

import (
	"math"
	"math/bits"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
)

// Relabel builds the component graph of the view l (§3.3) in one walk
// over l's live arcs (boruvka.Local.Arcs), vertex by vertex: it relabels
// every edge's endpoints, drops self edges (both endpoints in the same
// component) and keeps only the lightest edge between every pair of
// components, in the paper's pair-keyed min-edge hash table. parent[i] is
// the component of l's vertex i; ghost maps the global id of an external
// head, read from the arc as ^dst, to its component: the merge phase
// passes the Of of a ParentTable over l's ghost span, filled from the
// remote deltas, one array load per cut arc. The walk skips retired arcs,
// so each must be internal under parent: after a kernel run on l, parent
// must keep the run's components together, as its Result.Parent does. An
// inside edge is met once, from its smaller endpoint; self-loops are self
// edges and never survive.
//
// Every result edge is oriented U < V, and the edges come in the order
// the walk first meets their pair; equal packed weights are copies of one
// edge, so the first is kept. No edge gives nil. The work returned is the
// table's: one hash update and one scan per non-self relabelled edge. The
// caller charges EdgesScanned = l.NumEdges for the walk, the scan of every
// edge, however many arcs the live prefixes skip. dst must not alias l;
// the edge list l was built from by boruvka.NewLocal, which copies it, is
// free for reuse. The result is built in dst when it can hold liveBound
// edges, and allocated at that size otherwise.
func Relabel(dst []graph.Edge, l *boruvka.Local, parent []int32, ghost func(int32) int32) ([]graph.Edge, cost.Work) {
	n := liveBound(l)
	if n == 0 {
		return nil, cost.Work{}
	}
	if cap(dst) < n {
		dst = make([]graph.Edge, 0, n)
	}
	out := dst[:0]
	// table[s] is 1 + the index in out of the edge of the pair that hashes
	// to slot s or probes on from it, and 0 for an empty slot. It has at
	// least 2n slots and out never holds more than n pairs (liveBound; a
	// parent that breaks the contract above panics), so it is at most
	// half full and a probe always ends.
	slotBits := bits.Len(uint(2*n - 1))
	table := make([]int32, 1<<slotBits)
	mask := uint64(len(table) - 1)
	var kept int64
	for u := range l.N() {
		pu := parent[u]
		heads, w := l.Arcs(u)
		for a, v := range heads {
			var pv int32
			if v >= 0 {
				if int(v) <= u {
					continue
				}
				pv = parent[v]
			} else {
				pv = ghost(^v)
			}
			if pu == pv {
				continue
			}
			kept++
			lo, hi := min(pu, pv), max(pu, pv)
			for s := pairHash(lo, hi) >> (64 - slotBits); ; s = (s + 1) & mask {
				i := table[s]
				if i == 0 {
					if len(out) == n {
						panic("merge: Relabel: more pairs than liveBound; parent splits a component a retired arc is internal to")
					}
					out = append(out, graph.Edge{U: lo, V: hi, W: w[a]})
					table[s] = int32(len(out))
					break
				}
				if e := &out[i-1]; e.U == lo && e.V == hi {
					if graph.WeightLess(w[a], e.W) {
						e.W = w[a]
					}
					break
				}
			}
		}
	}
	if len(out) == 0 {
		out = nil
	}
	return out, cost.Work{HashOps: kept, EdgesScanned: kept}
}

// pairHash is the Fibonacci hash of the oriented pair (lo, hi): its top
// bits depend on every bit of both ids.
func pairHash(lo, hi int32) uint64 {
	return (uint64(uint32(lo))<<32 | uint64(uint32(hi))) * 0x9e3779b97f4a7c15
}

// liveBound bounds the edges Relabel keeps from l's live arc counts
// alone: every cut arc, live or not, and half the other live arcs. An
// inside edge that survives has both its arcs live, since a retired arc
// is internal. After a kernel run that ended with a round of no merges,
// every live arc of a vertex below the kernel's hub degree leaves its
// component, so the bound is exact unless an external head maps into a
// component of l, which cannot happen across ranks, whose components are
// disjoint.
func liveBound(l *boruvka.Local) int {
	live := 0
	for u := range l.N() {
		heads, _ := l.Arcs(u)
		live += len(heads)
	}
	return (live + int(l.NumCut)) / 2
}

// DedupeByID removes duplicate copies of the same original edge (same ID),
// which appear when both endpoint owners ship their copy to one rank. It
// keeps the first copy of each, in place and in arrival order, marking the
// IDs seen in a bitmap over their span: at most m/8 bytes for an m-edge
// graph. A span over 8 KiB and over one in-memory edge's bits per edge
// takes a set instead.
func DedupeByID(edges []graph.Edge) []graph.Edge {
	if len(edges) == 0 {
		return edges
	}
	id := emptyRange
	for i := range edges {
		id.add(graph.EdgeID(edges[i].W))
	}
	out := edges[:0]
	span := uint64(uint32(id.hi)-uint32(id.lo)) + 1
	if span > max(8*graph.EdgeBytes*uint64(len(edges)), 1<<16) {
		seen := make(map[int32]struct{}, len(edges))
		for _, e := range edges {
			eid := graph.EdgeID(e.W)
			if _, ok := seen[eid]; !ok {
				seen[eid] = struct{}{}
				out = append(out, e)
			}
		}
		return out
	}
	seen := make([]uint64, (span+63)/64)
	for _, e := range edges {
		x := uint32(graph.EdgeID(e.W)) - uint32(id.lo)
		if bit := uint64(1) << (x % 64); seen[x/64]&bit == 0 {
			seen[x/64] |= bit
			out = append(out, e)
		}
	}
	return out
}

// keyRange tracks the range of int32 keys.
type keyRange struct{ lo, hi int32 }

// emptyRange is the range of no keys; add widens it.
var emptyRange = keyRange{lo: math.MaxInt32, hi: math.MinInt32}

func (r *keyRange) add(x int32) { r.lo, r.hi = min(r.lo, x), max(r.hi, x) }

// Delta is one parent update: component Old merged into component New.
type Delta struct{ Old, New int32 }

// ParentTable is a parent function over the ids of a span [lo, hi]: one
// int32 per id, each its own parent until Set gives it another. It costs
// 4 bytes per id of the span. The merge phase builds one over a view's
// ghost span (boruvka.Local.GhostLo, GhostHi) from the remote deltas, so
// Relabel resolves a ghost with one array load; for vertex or component
// ids the span, and so the table, is at most 4·N bytes.
type ParentTable struct {
	lo     int32
	parent []int32
}

// NewParentTable returns the identity table over [lo, hi], which is empty
// when lo > hi.
func NewParentTable(lo, hi int32) ParentTable {
	n := int64(hi) - int64(lo) + 1
	if n <= 0 {
		return ParentTable{}
	}
	t := ParentTable{lo: lo, parent: make([]int32, n)}
	for i := range t.parent {
		t.parent[i] = lo + int32(i)
	}
	return t
}

// Set makes p the parent of id. An id outside the span is skipped: no
// lookup asks for it.
func (t ParentTable) Set(id, p int32) {
	if x := uint32(id - t.lo); x < uint32(len(t.parent)) {
		t.parent[x] = p
	}
}

// Of returns the parent of id, which must lie in the span.
func (t ParentTable) Of(id int32) int32 { return t.parent[uint32(id-t.lo)] }
