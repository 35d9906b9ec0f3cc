// Package boruvka implements the device-level parallel Boruvka kernel of
// §3.2/§3.5: a data-driven, worklist-based minimum-spanning-forest kernel
// that runs on one device's partition and honours the exception conditions
// of the HyPar API — a component whose lightest outgoing edge leaves the
// partition (a cut edge) is not expanded, so independent per-device
// computations never contract an edge that could be beaten by a remote one.
//
// The kernel operates on a Local view: a set of globally-named vertices
// plus edges whose endpoints may be local or external (ghost). Every
// iteration of MND-MST runs on one view. The first is a window over a
// contiguous vertex range, built by the rank straight from the job's edge
// list (NewWindow); every later one is built from the component graph's
// edge list (NewLocal, vertices = component representatives). Each device
// of a node runs the kernel in place on its own contiguous range of the
// view (RunRange), which reads an arc that leaves the range as a cut arc.
package boruvka

import (
	"fmt"
	"math"
	"slices"

	"mndmst/internal/graph"
)

// Local is a node's view of its partition: the global ids of the local
// vertices and a CSR of arcs out of them. An arc is its head and the packed
// weight of its undirected edge, which holds the edge id (graph.EdgeID); a
// head inside the view is stored as its local index, a head outside it is
// external (ghost) and stored as ^global (bitwise NOT of its global id).
//
// Every vertex has a live end: Arcs returns the live prefix of its arcs,
// and the arcs past the end are retired. A new view has every arc live.
// Retiring arcs (Retain, or a kernel run that finds them internal to a
// component) moves the kept arcs forward in their order and the retired
// ones past the end, in place, so the view keeps all its arcs; RunRange
// makes every arc of its range live again before its first round. Every
// view owns its arc arrays; the node's devices share them by range.
type Local struct {
	IDs []int32 // sorted ascending, unique
	// NumEdges counts the view's undirected edges (self-loops included),
	// each once; NumCut counts those with exactly one local endpoint.
	NumEdges, NumCut int64
	// GhostLo and GhostHi are the least and greatest global ids of the
	// external heads, the view's ghost span, recorded when the view is
	// built; GhostLo > GhostHi exactly when NumCut == 0. No kernel run or
	// Retain adds a ghost, so the span holds for the view's life. The
	// merge phase resolves ghosts through a table over it
	// (merge.ParentTable): 4 bytes per id, at most 4·N for vertex or
	// component ids.
	GhostLo, GhostHi int32

	// CSR over local indices; arcs exist only from local endpoints.
	off []int64
	dst []int32 // local index of head, or ^global if external
	w   []uint64
	// live[u] counts u's live arcs, the prefix of its CSR range that is
	// not retired.
	live []int32
}

// NewLocal builds a Local view from an edge list with global endpoint
// names. IDs must be unique and non-negative; they are sorted in place.
// Every edge must have at least one local endpoint. The global→local
// index is dense over the span [IDs[0], IDs[len-1]]: slot v − IDs[0]
// holds v's local index + 1, or 0 when v is not local, and an endpoint
// outside the span is external. It costs 4 bytes per id of the span,
// which for vertex or component ids is at most 4·N.
func NewLocal(ids []int32, edges []graph.Edge) (*Local, error) {
	slices.Sort(ids)
	var lo int32
	var index []int32
	if n := len(ids); n > 0 {
		lo = ids[0]
		index = make([]int32, int64(ids[n-1])-int64(lo)+1)
	}
	for i, id := range ids {
		if i > 0 && ids[i-1] == id {
			return nil, fmt.Errorf("boruvka: duplicate local id %d", id)
		}
		index[id-lo] = int32(i) + 1
	}
	// local returns v's local index, or -1 when v is external.
	local := func(v int32) int32 {
		if x := uint32(v - lo); x < uint32(len(index)) {
			return index[x] - 1
		}
		return -1
	}
	l := &Local{IDs: ids, NumEdges: int64(len(edges)), GhostLo: math.MaxInt32, GhostHi: math.MinInt32}
	n := len(ids)
	counts := make([]int64, n+1)
	for i := range edges {
		e := &edges[i]
		lu, lv := local(e.U), local(e.V)
		if lu < 0 && lv < 0 {
			return nil, fmt.Errorf("boruvka: edge %d (%d-%d) has no local endpoint", i, e.U, e.V)
		}
		if (lu < 0) != (lv < 0) {
			l.NumCut++
			g := e.U
			if lu >= 0 {
				g = e.V
			}
			l.GhostLo, l.GhostHi = min(l.GhostLo, g), max(l.GhostHi, g)
		}
		if lu >= 0 {
			counts[lu+1]++
		}
		if lv >= 0 && e.U != e.V { // self-loop on a local vertex: one arc only
			counts[lv+1]++
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	total := counts[n]
	l.off = counts
	l.dst = make([]int32, total)
	l.w = make([]uint64, total)
	cursor := make([]int64, n)
	// put stores the arc tail → head; a head with no local index is
	// stored as ^global.
	put := func(tail, head, headLocal int32, e *graph.Edge) {
		a := l.off[tail] + cursor[tail]
		cursor[tail]++
		if headLocal < 0 {
			headLocal = ^head
		}
		l.dst[a], l.w[a] = headLocal, e.W
	}
	for i := range edges {
		e := &edges[i]
		lu, lv := local(e.U), local(e.V)
		if lu >= 0 {
			put(lu, e.V, lv, e)
		}
		if lv >= 0 && e.U != e.V {
			put(lv, e.U, lu, e)
		}
	}
	l.live = make([]int32, n)
	l.resetLive(0, n)
	return l, nil
}

// windowBlock is the number of edges NewWindow lists at a time; its block
// index is a stack array of this many entries.
const windowBlock = 1024

// NewWindow builds the view of the contiguous vertex range [lo, hi) of el
// from the edge list, with no global→local index: the local index of
// vertex v is v − lo. deg is el's degree vector (Degrees, or the
// allreduced one of partition.ReadBounds); deg[lo:hi] sizes the arc
// arrays, so there is no count pass. Each vertex's arcs come out in
// ascending edge id, as in graph.BuildCSR. A self-loop keeps one arc; the
// slot of its second arc is compacted away. The view, its ghost span
// included, equals NewLocal over the range's ids and the edges of el with
// an endpoint in the range.
//
// The edges are read in blocks of windowBlock, two passes per block. The
// listing pass (listInRange) is branch-free: it writes every edge's block
// index to a stack array and advances the list's end by the edge's
// in-range bit, so only the edges with an endpoint in the range stay
// listed. The fill pass then puts the listed edges' arcs, in edge order.
// On a web graph whether an edge is in range is a coin flip, which a
// branch per edge mispredicts. On a road grid, whose edges come in vertex
// order, that branch is nearly always predicted and the listing is extra
// work, so the listing loop is unrolled to keep its cost per edge low.
func NewWindow(el *graph.EdgeList, deg []int64, lo, hi int32) *Local {
	n := int(hi - lo)
	l := &Local{IDs: make([]int32, n), off: make([]int64, n+1)}
	// off[i+1] starts as vertex i's first slot and is its fill cursor;
	// after the fill it is the end of i's arcs.
	var total int64
	for i, d := range deg[lo:hi] {
		l.off[i+1] = total
		total += d
	}
	l.dst = make([]int32, total)
	l.w = make([]uint64, total)
	put := func(u, head int32, w uint64) {
		a := l.off[u+1]
		l.off[u+1]++
		l.dst[a], l.w[a] = head, w
	}
	var idx [windowBlock]int32
	loops := false
	glo, ghi := int32(math.MaxInt32), int32(math.MinInt32)
	for base := 0; base < len(el.Edges); base += windowBlock {
		blk := el.Edges[base:min(base+windowBlock, len(el.Edges))]
		k := listInRange(&idx, blk, lo, n)
		for _, j := range idx[:k] {
			e := &blk[j]
			u, v := e.U-lo, e.V-lo
			uIn, vIn := uint32(u) < uint32(n), uint32(v) < uint32(n)
			l.NumEdges++
			switch {
			case uIn && vIn:
				put(u, v, e.W)
				if u != v {
					put(v, u, e.W)
				} else {
					loops = true
				}
			case uIn:
				l.NumCut++
				glo, ghi = min(glo, e.V), max(ghi, e.V)
				put(u, ^e.V, e.W)
			default:
				l.NumCut++
				glo, ghi = min(glo, e.U), max(ghi, e.U)
				put(v, ^e.U, e.W)
			}
		}
	}
	l.GhostLo, l.GhostHi = glo, ghi
	for i := range l.IDs {
		l.IDs[i] = lo + int32(i)
	}
	if loops {
		l.compact(deg[lo:hi])
	}
	l.live = make([]int32, n)
	l.resetLive(0, n)
	return l
}

// listInRange writes to idx the indexes of blk's edges with an endpoint
// in [lo, lo+n), in order, and returns how many it wrote. It has no
// branch that depends on an edge: it writes every index at the list's
// end k and advances k by the edge's in-range bit, unrolled by eight.
func listInRange(idx *[windowBlock]int32, blk []graph.Edge, lo int32, n int) int {
	// in is 1 when e has an endpoint in the range, else 0.
	in := func(e *graph.Edge) int {
		return b2i(min(uint32(e.U-lo), uint32(e.V-lo)) < uint32(n))
	}
	k, i := 0, 0
	for ; i+8 <= len(blk); i += 8 {
		q := blk[i : i+8 : i+8]
		idx[k] = int32(i)
		k += in(&q[0])
		idx[k] = int32(i + 1)
		k += in(&q[1])
		idx[k] = int32(i + 2)
		k += in(&q[2])
		idx[k] = int32(i + 3)
		k += in(&q[3])
		idx[k] = int32(i + 4)
		k += in(&q[4])
		idx[k] = int32(i + 5)
		k += in(&q[5])
		idx[k] = int32(i + 6)
		k += in(&q[6])
		idx[k] = int32(i + 7)
		k += in(&q[7])
	}
	for ; i < len(blk); i++ {
		idx[k] = int32(i)
		k += in(&blk[i])
	}
	return k
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compact closes the gaps a fill leaves when a vertex kept fewer arcs than
// its slots: vertex i's arcs start at the prefix sum of slots[:i] and end
// at off[i+1].
func (l *Local) compact(slots []int64) {
	var k, start int64
	for i, d := range slots {
		end := l.off[i+1]
		copy(l.dst[k:], l.dst[start:end])
		copy(l.w[k:], l.w[start:end])
		k += end - start
		l.off[i+1] = k
		start += d
	}
	l.dst, l.w = l.dst[:k:k], l.w[:k:k]
}

// RangeEdges counts the edges with an endpoint in local vertices [a, b),
// each once, retired arcs included: the NumEdges of the view of the range
// alone. An arc counts when its head h is not in the range before its
// tail u: uint32(h−a) ≥ uint32(u−a).
func (l *Local) RangeEdges(a, b int) int64 {
	var m int64
	for u := a; u < b; u++ {
		for _, h := range l.dst[l.off[u]:l.off[u+1]] {
			m += int64(b2i(uint32(h-int32(a)) >= uint32(u-a)))
		}
	}
	return m
}

// Arcs returns the heads and packed weights of the live arcs out of local
// vertex u, in the view's order. A kernel run retires only arcs internal
// to u's component, so the live arcs include every cut arc.
// After a run that ended with a round of no merges they are exactly u's
// arcs to other components, with two exceptions that keep more: a hub of
// hubDegree arcs or more keeps all of them unless the run contracted
// (Options.Contract), and a Contract run of one round retires nothing.
// After a Terminator stop they may include more. A head is a local index,
// or ^global when it is external. The slices alias the view and must not
// be modified.
func (l *Local) Arcs(u int) (dst []int32, w []uint64) {
	lo := l.off[u]
	hi := lo + int64(l.live[u])
	return l.dst[lo:hi:hi], l.w[lo:hi:hi]
}

// Retain keeps the live arcs of local vertex u for which keep reports
// true, in their order, and retires the rest: it swaps each kept arc
// forward and moves u's live end to just after the last one. It returns
// the number kept. Retired arcs stay in the view, and the next kernel run
// over u makes them live again. Calls for distinct vertices may run
// concurrently.
func (l *Local) Retain(u int, keep func(head int32, w uint64) bool) int {
	lo := l.off[u]
	j := lo
	for a := lo; a < lo+int64(l.live[u]); a++ {
		if keep(l.dst[a], l.w[a]) {
			l.dst[a], l.dst[j] = l.dst[j], l.dst[a]
			l.w[a], l.w[j] = l.w[j], l.w[a]
			j++
		}
	}
	l.live[u] = int32(j - lo)
	return int(j - lo)
}

// Global returns the global id of arc head h: IDs[h] for a local index,
// ^h for an external head.
func (l *Local) Global(h int32) int32 {
	if h < 0 {
		return ^h
	}
	return l.IDs[h]
}

// N reports the number of local vertices.
func (l *Local) N() int { return len(l.IDs) }

// NumArcs reports the number of local arcs.
func (l *Local) NumArcs() int64 { return int64(len(l.dst)) }

// Degree reports the number of arcs out of local vertex u, live or not.
func (l *Local) Degree(u int) int64 { return l.off[u+1] - l.off[u] }

// Border reports whether local vertex u has a cut edge. It walks u's live
// arcs, which keep every cut arc.
func (l *Local) Border(u int) bool {
	dst, _ := l.Arcs(u)
	for _, v := range dst {
		if v < 0 {
			return true
		}
	}
	return false
}

// resetLive makes every arc of local vertices [a, b) live again.
func (l *Local) resetLive(a, b int) {
	for u := a; u < b; u++ {
		l.live[u] = int32(l.off[u+1] - l.off[u])
	}
}

// degreeSkew returns max/avg local degree over local vertices [a, b) (1
// for empty or regular ranges).
func (l *Local) degreeSkew(a, b int) float64 {
	n := b - a
	if n == 0 || l.off[b] == l.off[a] {
		return 1
	}
	var max int64
	for u := a; u < b; u++ {
		if d := l.Degree(u); d > max {
			max = d
		}
	}
	avg := float64(l.off[b]-l.off[a]) / float64(n)
	if avg <= 0 {
		return 1
	}
	s := float64(max) / avg
	if s < 1 {
		return 1
	}
	return s
}
