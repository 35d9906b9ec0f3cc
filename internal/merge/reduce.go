// Package merge implements the data-reduction and hierarchical-merging
// machinery of §3.3/§3.4: self-edge removal, ghost parent-id exchange,
// multi-edge removal, component segment formation, ring-based segment
// exchange within groups, and the transfer encoding used when components
// move between ranks.
//
// The §3.3 pair-min hash table is modeled, not built: RemoveMultiEdges gets
// the same lightest edge per component pair from a radix sort over the
// pairs and charges one hash operation per edge, as the table would.
//
// The kernel's Result does not depend on the order of a view's edges, so
// DedupeByID filters in place, in arrival order, rather than sort.
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

// Relabel extracts the relabelled edge list of the view l: it walks l's
// live arcs (boruvka.Local.Arcs) vertex by vertex and appends to dst[:0]
// every edge whose relabelled endpoints differ, dropping self edges (both
// endpoints in the same component) without materialising the edge list
// first. After a kernel run on l, the arcs it skips are ones the kernel
// found internal to a component, so parent must keep the run's components
// together, as its Result.Parent does. parent[i] is the component of l's
// vertex i; ghost maps the global id of an external head, read from the
// arc as ^dst. An inside edge is emitted once, from its smaller endpoint;
// self-loops are self edges and never survive. The caller charges
// EdgesScanned = l.NumEdges for it, the scan of every edge, however many
// arcs the live prefixes skip. dst must not alias l; the edge list l was
// built from by boruvka.NewLocal, which copies it, is free for reuse.
// When dst cannot hold l.NumEdges edges, the result is allocated at the
// size survivors counts.
func Relabel(dst []graph.Edge, l *boruvka.Local, parent []int32, ghost func(int32) int32) []graph.Edge {
	if int64(cap(dst)) < l.NumEdges {
		dst = make([]graph.Edge, 0, survivors(l, parent))
	}
	out := dst[:0]
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
			if pu != pv {
				out = append(out, graph.Edge{U: pu, V: pv, W: w[a]})
			}
		}
	}
	return out
}

// survivors counts the edges Relabel keeps without calling ghost, over
// the same live arcs: every cut edge counts, so the count is exact whenever no external head maps
// into a component of l. That holds across ranks, whose components are
// disjoint; otherwise it is an upper bound.
func survivors(l *boruvka.Local, parent []int32) int {
	inside := 0 // an inside survivor is met from both its ends
	for u := range l.N() {
		pu := parent[u]
		heads, _ := l.Arcs(u)
		for _, v := range heads {
			if v >= 0 && parent[v] != pu {
				inside++
			}
		}
	}
	return int(l.NumCut) + inside/2
}

// RemoveMultiEdges keeps only the lightest edge between every pair of
// components: it orients every edge so that U < V, radix-sorts the slice
// by (U, V) and keeps the lightest edge of each run of equal pairs (equal
// weights are copies of one edge). The result reuses edges and is sorted
// by (U, V). The work charged is that of the §3.3 pair-min hash table, one
// update per edge: the table is modeled, not built.
func RemoveMultiEdges(edges []graph.Edge) ([]graph.Edge, cost.Work) {
	w := cost.Work{HashOps: int64(len(edges)), EdgesScanned: int64(len(edges))}
	if len(edges) == 0 {
		return nil, w
	}
	u, v := emptyRange, emptyRange
	for i := range edges {
		e := &edges[i]
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		u.add(e.U)
		v.add(e.V)
	}
	radixSort(edges, edgeKey{lo: u.lo, vlo: v.lo, vBits: v.bits(), bits: u.bits() + v.bits()})
	out := edges[:1]
	for _, e := range edges[1:] {
		last := &out[len(out)-1]
		switch {
		case e.U != last.U || e.V != last.V:
			out = append(out, e)
		case graph.WeightLess(e.W, last.W):
			*last = e
		}
	}
	return out, w
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

// keyRange tracks the range of one int32 sort key.
type keyRange struct{ lo, hi int32 }

// emptyRange is the range of no keys; add widens it.
var emptyRange = keyRange{lo: math.MaxInt32, hi: math.MinInt32}

func (r *keyRange) add(x int32) { r.lo, r.hi = min(r.lo, x), max(r.hi, x) }

// bits is the width of the largest offset from lo.
func (r *keyRange) bits() int { return bits.Len32(uint32(r.hi) - uint32(r.lo)) }

// edgeKey is the unsigned sort key of an edge: its U offset from lo above
// its V offset from vlo. Offsets keep the signed order and make the key
// only as wide as the keys' range.
type edgeKey struct {
	lo    int32
	vlo   int32
	vBits int
	bits  int // width of the key
}

func (k edgeKey) of(e *graph.Edge) uint64 {
	return uint64(uint32(e.U)-uint32(k.lo))<<k.vBits | uint64(uint32(e.V)-uint32(k.vlo))
}

// radixSort stably sorts a by k in LSD passes. The digit width follows
// len(a), not the key width, so the scratch (one copy of a and one count
// per digit value) is O(len(a)) however large the ids are.
func radixSort(a []graph.Edge, k edgeKey) {
	n := len(a)
	if n < 2 || k.bits == 0 {
		return
	}
	maxDigit := min(max(bits.Len(uint(n))-1, 8), 16)
	passes := (k.bits + maxDigit - 1) / maxDigit
	digit := (k.bits + passes - 1) / passes
	count := make([]int, 1<<digit)
	mask := uint64(len(count) - 1)
	src, dst := a, make([]graph.Edge, n)
	for shift := 0; shift < k.bits; shift += digit {
		clear(count)
		for i := range src {
			count[k.of(&src[i])>>shift&mask]++
		}
		if count[k.of(&src[0])>>shift&mask] == n {
			continue // one digit value: the pass would not move anything
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := k.of(&src[i]) >> shift & mask
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// Delta is one parent update: component Old merged into component New.
type Delta struct{ Old, New int32 }

// DeltasFromParents extracts the parent updates a merge round produced:
// every id whose parent differs from itself. ids and parents correspond
// positionally (the boruvka kernel's Local.IDs and Result.Parent), and ids
// must be ascending, so the result is sorted by Old.
func DeltasFromParents(ids, parents []int32) []Delta {
	n := 0
	for i, id := range ids {
		if parents[i] != id {
			n++
		}
	}
	ds := make([]Delta, 0, n)
	for i, id := range ids {
		if parents[i] != id {
			ds = append(ds, Delta{Old: id, New: parents[i]})
		}
	}
	return ds
}

// ApplyDeltas builds a parent function from local and remote deltas over a
// base identity. Chains cannot occur within one round (each rank maps old
// ids directly to final representatives), so a single map lookup suffices.
// The map is sized for every delta up front.
func ApplyDeltas(all ...[]Delta) func(int32) int32 {
	n := 0
	for _, ds := range all {
		n += len(ds)
	}
	m := make(map[int32]int32, n)
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
