package boruvka

import (
	"slices"
	"sync"

	"mndmst/internal/cost"
	"mndmst/internal/dsu"
	"mndmst/internal/graph"
	"mndmst/internal/parutil"
)

// ExceptionCond selects which partition elements the kernel must not
// process, per the HyPar indComp API (§4.1.2).
type ExceptionCond int

const (
	// ExcptNone disables the exception: the kernel computes the full MSF
	// of its local view, treating external endpoints as errors. Use only
	// when the view has no external edges (e.g. the final postProcess).
	ExcptNone ExceptionCond = iota
	// ExcptBorderVertex is the paper's EXCPT_BORDER_VERTEX used by
	// Algorithm 1: a component whose lightest outgoing edge is a cut edge
	// stops expanding (§3.2). Cut edges are still inspected — they must
	// be, for the cut property to hold — but never contracted.
	ExcptBorderVertex
	// ExcptBorderEdge is the conservative EXCPT_BORDER_EDGE variant: a
	// component that contains a border vertex (one with at least one cut
	// edge) never expands. Vertices still scan — the component minimum
	// must be computed over all member edges for the cut property — but
	// border-touching components are never contracted. Correct but merges
	// less per stage; provided for the exception-condition ablation.
	ExcptBorderEdge
)

// Options configures a kernel run.
type Options struct {
	Excpt ExceptionCond
	// DataDriven selects the worklist-based kernel (§3.5); when false the
	// topology-driven variant rescans every vertex each round, which only
	// changes the work counters (and host time), not the result.
	DataDriven bool
	// Terminator, if non-nil, is consulted after every round with the
	// round index (from 1), the work performed in that round, and the
	// number of merges; returning true stops the kernel early (the
	// diminishing-benefit runtime strategy of §4.3.2 plugs in here).
	Terminator func(round int, roundWork cost.Work, merges int) bool
	// Contract enables between-round graph contraction in the style of
	// Sousa et al. [7]: after every round with merges, the arcs internal
	// to a component are retired past the live ends in place (one filter
	// pass, no copy), hubs included, so later rounds never rescan them.
	// The pass is charged every live arc it reads; a scan is then charged
	// only the live arcs, not the full degree. Wins on graphs that need
	// many rounds.
	Contract bool
}

// DefaultOptions returns the configuration Algorithm 1 uses.
func DefaultOptions() Options {
	return Options{Excpt: ExcptBorderVertex, DataDriven: true}
}

// Result is the outcome of an independent computation on one device.
type Result struct {
	// ChosenIDs are the original edge ids contracted into the MSF,
	// sorted ascending.
	ChosenIDs []int32
	// ChosenWeight is the total weight of the chosen edges.
	ChosenWeight uint64
	// Parent maps each local vertex of the run's range, by its index in
	// the range, to the GLOBAL id of its component representative (the
	// minimum global id in the component).
	Parent []int32
	// Components is the number of components remaining in the run's range.
	Components int
	// FrozenComponents counts components blocked by the exception
	// condition in the final round.
	FrozenComponents int
	// Rounds is the number of Boruvka rounds executed.
	Rounds int
	// RoundMerges records the merges per round (for the termination
	// strategy tests).
	RoundMerges []int
	// Work aggregates the abstract operations performed.
	Work cost.Work
}

// hubDegree is the degree from which a vertex's arcs are scanned by a
// nested parallel loop: the hierarchical strategy of §3.5, which keeps
// power-law hubs from serializing one worker.
const hubDegree = 1 << 13

// kernel is the state of one RunRange. A data-driven round costs the
// vertices and live arcs of the components that merged in the previous
// round plus their roots; the only O(n) pass left in a round is the graph
// contraction of Options.Contract.
//
// Its arrays are indexed by the view's local index, over the range
// [base, base+n) of RunRange. Between rounds every tree of uf has depth
// at most one, so a vertex's parent is its root, and ring threads the
// members of each component into one cycle.
type kernel struct {
	opt     Options
	base, n int32
	uf      *dsu.Concurrent
	slots   []parutil.MinSlot
	// l is the view the kernel runs on. Its live ends shrink as scanArcs
	// (for non-hub vertices) or, under Contract, contract retires
	// internal arcs.
	l *Local
	// ring[u] is the member after u on its component's cycle.
	ring []int32
	// border[r] reports whether root r's component contains a border
	// vertex; allocated only for ExcptBorderEdge.
	border []bool
	// active lists the roots the next hook phase visits: every root in
	// round 1 and in topology-driven mode, ascending, and otherwise the
	// roots of the components that merged in the previous round, in the
	// order join found them.
	active []int32
	// scan lists the vertices the next scan phase visits: all of them in
	// topology-driven mode, otherwise the members of the active
	// components that have a live arc. A member with none proposes
	// nothing, and its live end cannot move again within the Run.
	scan []int32
	// dead is what the next scan phase is charged for the members join
	// left off scan: without Contract their full degree, which the scan
	// would have charged, and under Contract their live arcs, none.
	dead int64
	// merged collects the merged components' roots, each once, marked in
	// seen while it is collected. Both are round buffers.
	merged []int32
	seen   []bool
	res    *Result
}

func newKernel(l *Local, a, b int, opt Options, res *Result) *kernel {
	n := l.N()
	k := &kernel{
		opt: opt, base: int32(a), n: int32(b - a), res: res,
		uf:     dsu.NewConcurrent(n),
		slots:  parutil.NewMinSlots(n),
		l:      l,
		ring:   make([]int32, n),
		active: make([]int32, b-a),
		scan:   make([]int32, b-a),
		merged: make([]int32, 0, b-a),
		seen:   make([]bool, n),
	}
	parutil.Iota(k.ring, 0)
	copy(k.active, k.ring[a:b])
	copy(k.scan, k.ring[a:b])
	l.resetLive(a, b)
	if opt.Excpt == ExcptBorderEdge {
		k.border = make([]bool, n)
		parutil.For(b-a, 1<<13, func(lo, hi int) {
			for u := a + lo; u < a+hi; u++ {
				heads, _ := l.Arcs(u)
				k.border[u] = slices.ContainsFunc(heads, k.outside)
			}
		})
	}
	return k
}

// Run executes the kernel on the whole local view.
func Run(l *Local, opt Options) *Result { return RunRange(l, 0, l.N(), opt) }

// RunRange executes the kernel in place on local vertices [a, b) of l, as
// Run would on the view of the range alone. It makes every arc of the
// range live, reorders each vertex's arcs in place as it retires internal
// ones, and leaves their live ends (see Local and Arcs); the live arcs
// keep their order. It touches no arc or live end outside the range, so
// runs on disjoint ranges may run concurrently. A vertex outside the
// range is never unioned, so an arc to it reads as external through the
// same parent test as a ghost's, and only hook, once per active root,
// compares a head with the range.
func RunRange(l *Local, a, b int, opt Options) *Result {
	n := b - a
	res := &Result{Work: cost.Work{DegreeSkew: l.degreeSkew(a, b)}}
	if n == 0 {
		res.Parent = []int32{}
		return res
	}
	k := newKernel(l, a, b, opt, res)
	for round := 1; ; round++ {
		rw, merges, frozen := k.round()
		rw.DegreeSkew = res.Work.DegreeSkew
		res.RoundMerges = append(res.RoundMerges, merges)
		res.Rounds = round
		res.Work.Add(rw)
		res.FrozenComponents = frozen
		if merges == 0 {
			break
		}
		if opt.Terminator != nil && opt.Terminator(round, rw, merges) {
			break
		}
		if opt.Contract {
			res.Work.EdgesScanned += k.contract()
		}
	}

	// The rings are dead once the last join returned: Parent takes their
	// storage.
	res.Parent = k.ring[a:b:b]
	parutil.For(n, 1<<13, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			res.Parent[i] = l.IDs[k.uf.Find(k.base+int32(i))]
		}
	})
	res.Components = k.uf.CountSets() - (l.N() - n) // less the singletons outside
	graph.SortEdgeIDs(res.ChosenIDs)
	return res
}

// round runs one Borůvka round and returns its work, its merges and the
// number of components the exception condition froze.
func (k *kernel) round() (rw cost.Work, merges, frozen int) {
	rw.Iterations = 1
	// The scan list was built by the previous round's flatten walk; the
	// modeled cost is still the filter sweep over n of §3.5.
	rw.VerticesProcessed += int64(k.n)
	rw.EdgesScanned, rw.AtomicOps = k.scanArcs()
	merges, frozen = k.hook()
	rw.AtomicOps += int64(merges)
	k.join()
	rw.VerticesProcessed += int64(k.n) // the flatten pass, likewise
	return rw, merges, frozen
}

// scanArcs is the scan phase: every listed vertex proposes the lightest
// of its live arcs to its component's min-slot. An internal arc stays
// internal, so no later round or relabel needs it. Without Contract, a
// non-hub vertex partitions its live prefix in one pass: it moves each
// arc it finds external forward, keeping their order, and its live end
// to just after the last one, and it is charged all its arcs: an internal
// arc was never a proposal, so the counts do not change with that. Under
// Contract, contract does the retiring, and a vertex is charged its live
// arcs. It returns the arcs scanned and the proposals made, each summed
// per chunk, plus the arcs join charged for the members it left off the
// list. No parent changes during the scan, so it reads them plainly.
func (k *kernel) scanArcs() (scanned, proposed int64) {
	l, uf, slots, compact := k.l, k.uf, k.slots, !k.opt.Contract
	off, dst, wgt, live := l.off, l.dst, l.w, l.live
	// arcLess orders arcs by (packed weight, arc index): a total order.
	// Equal weights are the two arcs of one edge, which are internal and
	// never proposed, so moving arcs leaves every winner as it was.
	arcLess := func(a, b int64) bool {
		return graph.WeightLess(wgt[a], wgt[b]) || wgt[a] == wgt[b] && a < b
	}
	// propose offers the lightest of arcs [alo, ahi) of u to u's
	// component and returns the number of them that are external. §3.5
	// makes one atomic min per arc; taking the minimum locally first and
	// proposing once leaves the slot with the same winner, and the count
	// returned still charges one per candidate arc. With compact set,
	// [alo, ahi) is u's live prefix, which compactLightest compacts, and u's
	// live end is written back.
	propose := func(u int32, alo, ahi int64, compact bool) int64 {
		parents := uf.Parents()
		r := parents[u]
		var best, ext int
		if compact {
			best, ext = compactLightest(dst[alo:ahi], wgt[alo:ahi], parents, r)
			live[u] = int32(ext)
		} else {
			best, ext = lightest(dst[alo:ahi], wgt[alo:ahi], parents, r)
		}
		if best >= 0 {
			slots[r].Propose(alo+int64(best), arcLess)
		}
		return int64(ext)
	}
	var scans, props parutil.Counter
	scans.Add(k.dead)
	k.dead = 0
	var hubMu sync.Mutex
	var hubs []int32
	parutil.For(len(k.scan), 512, func(lo, hi int) {
		var s, p int64
		for _, u := range k.scan[lo:hi] {
			alo, ahi := off[u], off[u]+int64(live[u])
			if ahi-alo >= hubDegree {
				// Defer to the per-hub nested parallel pass below.
				hubMu.Lock()
				hubs = append(hubs, u)
				hubMu.Unlock()
				continue
			}
			if compact {
				s += off[u+1] - alo
			} else {
				s += ahi - alo
			}
			p += propose(u, alo, ahi, compact)
		}
		scans.Add(s)
		props.Add(p)
	})
	// A hub is never compacted here, so without Contract its live arcs
	// are all its arcs.
	for _, u := range hubs {
		alo := off[u]
		parutil.For(int(live[u]), 1<<12, func(lo, hi int) {
			scans.Add(int64(hi - lo))
			props.Add(propose(u, alo+int64(lo), alo+int64(hi), false))
		})
	}
	return scans.Load(), props.Load()
}

// hook is the hook phase. Every active root reads its winning arc. A
// root whose lightest arc leaves the range (a cut edge, §3.2), or whose
// component touches the border under ExcptBorderEdge, is frozen; every
// other root unions along its arc. A slot keeps its arc only when the union
// succeeded, for join to record and clear, so all slots are empty once
// join returns. The active roots are fixed before any union runs, so with
// distinct weights the successful unions are a forest (mutual pairs
// collapse to one edge) and the set of contractions, and therefore every
// counter, does not depend on goroutine scheduling.
func (k *kernel) hook() (merges, frozen int) {
	var nMerges, nFrozen parutil.Counter
	parutil.For(len(k.active), 1<<10, func(lo, hi int) {
		var m, f int64
		for _, r := range k.active[lo:hi] {
			a := k.slots[r].Load()
			if a == parutil.NoEdge {
				continue
			}
			if k.border != nil && k.border[r] || k.outside(k.l.dst[a]) {
				f++
			} else if _, ok := k.uf.TryUnion(r, k.l.dst[a]); ok {
				m++
				continue
			}
			k.slots[r].Reset()
		}
		nMerges.Add(m)
		nFrozen.Add(f)
	})
	return int(nMerges.Load()), int(nFrozen.Load())
}

// join records the round's unions from the slots hook left set. It adds
// each chosen edge to the result, clears the slot and splices the two
// member rings of the union, which is valid in any order because the
// unions form a forest. It then walks the rings of the merged components
// only: it points every member straight at its root, ORs the border
// flags and, in data-driven mode, lists the members that have a live arc
// for the next scan phase and charges it for the others (kernel.dead).
// The merged roots, in the order found, become the next active list; in
// topology-driven mode the live roots do.
func (k *kernel) join() {
	res, ring := k.res, k.ring
	merged := k.merged[:0]
	for _, r := range k.active {
		a := k.slots[r].Load()
		if a == parutil.NoEdge {
			continue
		}
		k.slots[r].Reset()
		v := k.l.dst[a]
		res.ChosenIDs = append(res.ChosenIDs, graph.EdgeID(k.l.w[a]))
		res.ChosenWeight += k.l.w[a]
		ring[r], ring[v] = ring[v], ring[r]
		if root := k.uf.Find(r); !k.seen[root] {
			k.seen[root] = true
			merged = append(merged, root)
		}
	}

	dd, live, chargeDead := k.opt.DataDriven, k.l.live, !k.opt.Contract
	if dd {
		k.scan = k.scan[:0]
	}
	for _, r := range merged {
		border := false
		for u := r; ; {
			k.uf.SetParent(u, r)
			if k.border != nil {
				border = border || k.border[u]
			}
			if dd {
				if live[u] > 0 {
					k.scan = append(k.scan, u)
				} else if chargeDead {
					k.dead += k.l.Degree(int(u))
				}
			}
			if u = ring[u]; u == r {
				break
			}
		}
		if k.border != nil {
			k.border[r] = border
		}
		k.seen[r] = false
	}

	if dd {
		k.active, k.merged = merged, k.active
		return
	}
	roots := k.active[:0]
	for _, r := range k.active {
		if k.uf.Parent(r) == r {
			roots = append(roots, r)
		}
	}
	k.active, k.merged = roots, merged
}

// outside reports whether arc head h, a ghost's included, leaves the range.
func (k *kernel) outside(h int32) bool { return uint32(h-k.base) >= uint32(k.n) }

// external is 1 when the arc to head v leaves component r and 0 when it
// is internal, computed without a branch: the arc is internal when v is
// not a ghost (v >= 0) and parents[v] is r. A ghost head reads parents[0]
// instead, and the sign bit discards what it read. parents must be flat,
// as between rounds, so that a vertex's parent is its root.
func external(parents []int32, v, r int32) int {
	ghost := int(uint32(v) >> 31)
	var same int
	if parents[v&^(v>>31)] == r {
		same = 1
	}
	return ghost | (1 - same)
}

// lightest returns the index of the lightest of the arcs heads, ws of a
// vertex of component r that leave it, or -1 if none does, and how many
// leave it. It has no data-dependent branch: an internal arc's candidate
// weight is masked to ^0, which no packed weight reaches
// (graph.MakeWeight), so it never beats bestW, and the lightest is kept
// by a conditional move.
func lightest(heads []int32, ws []uint64, parents []int32, r int32) (best, ext int) {
	best, bestW := -1, ^uint64(0)
	for a, v := range heads {
		x := external(parents, v, r)
		if w := ws[a] | (uint64(x) - 1); graph.WeightLess(w, bestW) {
			best, bestW = a, w
		}
		ext += x
	}
	return best, ext
}

// compactLightest is lightest that also stably partitions the arcs:
// every arc is swapped with the next free place j, which advances past an
// external arc only, so heads[:j] ends up holding the external arcs in
// their order and heads[j:] the internal ones. The returned index is the
// lightest's place after the move; a place below j is never written
// again.
func compactLightest(heads []int32, ws []uint64, parents []int32, r int32) (best, j int) {
	best, bestW := -1, ^uint64(0)
	ws = ws[:len(heads)] // so ws[a] needs no bounds check
	for a, v := range heads {
		w := ws[a]
		x := external(parents, v, r)
		heads[a], heads[j] = heads[j], v
		ws[a], ws[j] = ws[j], w
		if w |= uint64(x) - 1; graph.WeightLess(w, bestW) {
			best, bestW = j, w
		}
		j += x
	}
	return best, j
}

// contract is the graph contraction of Sousa et al. [7]: it retires the
// component-internal live arcs of every vertex, hubs included, so later
// rounds skip them, and returns the arcs its filter pass scanned: every
// live arc before the pass.
func (k *kernel) contract() int64 {
	var scanned int64
	for _, d := range k.l.live[k.base : k.base+k.n] {
		scanned += int64(d)
	}
	parutil.For(int(k.n), 1<<12, func(lo, hi int) {
		l, uf := k.l, k.uf
		for u := int(k.base) + lo; u < int(k.base)+hi; u++ {
			r := uf.Parent(int32(u))
			l.Retain(u, func(v int32, _ uint64) bool { return v < 0 || uf.Parent(v) != r })
		}
	})
	return scanned
}
