package boruvka

import (
	"slices"
	"sync"
	"sync/atomic"

	"mndmst/internal/cost"
	"mndmst/internal/dsu"
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
	// Sousa et al. [7]: after every round with merges, arcs internal to a
	// component are filtered out of the working adjacency, so later
	// rounds never rescan them. Costs one filtering pass per round; wins
	// on graphs that need many rounds.
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
	// Parent maps each local vertex (by local index) to the GLOBAL id of
	// its component representative (the minimum global id in the
	// component).
	Parent []int32
	// Components is the number of components remaining in the local view.
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

// Run executes the kernel on the local view.
func Run(l *Local, opt Options) *Result {
	n := l.N()
	res := &Result{Work: cost.Work{DegreeSkew: l.degreeSkew()}}
	if n == 0 {
		res.Parent = []int32{}
		return res
	}
	uf := dsu.NewConcurrent(n)
	slots := parutil.NewMinSlots(n)
	// Working adjacency: aliases of the Local's arrays, replaced by
	// filtered copies when Contract is on.
	off, dst, eid, wgt := l.off, l.dst, l.eid, l.w
	// arcLess orders arcs by (weight, edge id, arc index): a total order.
	arcLess := func(a, b int64) bool {
		if wgt[a] != wgt[b] {
			return wgt[a] < wgt[b]
		}
		if eid[a] != eid[b] {
			return eid[a] < eid[b]
		}
		return a < b
	}

	// border[u] marks local vertices with at least one cut edge, needed
	// for ExcptBorderEdge. Computed once.
	var border []bool
	if opt.Excpt == ExcptBorderEdge {
		border = make([]bool, n)
		parutil.For(n, 1<<13, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				border[u] = l.Border(u)
			}
		})
	}

	dirty := make([]atomic.Bool, n) // indexed by root
	for i := range dirty {
		dirty[i].Store(true)
	}
	nextDirty := make([]atomic.Bool, n)

	var chosenMu sync.Mutex
	var frozen int64

	for round := 1; ; round++ {
		var rw cost.Work
		rw.Iterations = 1
		rw.DegreeSkew = res.Work.DegreeSkew

		// Filter phase: collect the vertices whose component is dirty.
		// Topology-driven mode scans everything.
		var scanList []int32
		if opt.DataDriven {
			var cnt parutil.Counter
			marks := make([]bool, n)
			parutil.For(n, 1<<13, func(lo, hi int) {
				for u := lo; u < hi; u++ {
					if dirty[uf.Find(int32(u))].Load() {
						marks[u] = true
						cnt.Add(1)
					}
				}
			})
			scanList = make([]int32, 0, cnt.Load())
			for u := 0; u < n; u++ {
				if marks[u] {
					scanList = append(scanList, int32(u))
				}
			}
			rw.VerticesProcessed += int64(n)
		} else {
			scanList = make([]int32, n)
			parutil.Iota(scanList, 0)
			rw.VerticesProcessed += int64(n)
		}

		// For ExcptBorderEdge, mark every component that currently
		// contains a border vertex; such components are frozen in the
		// hook phase below.
		var borderRoot []atomic.Bool
		if opt.Excpt == ExcptBorderEdge {
			borderRoot = make([]atomic.Bool, n)
			parutil.For(n, 1<<13, func(lo, hi int) {
				for u := lo; u < hi; u++ {
					if border[u] {
						borderRoot[uf.Find(int32(u))].Store(true)
					}
				}
			})
		}

		// Scan phase: every listed vertex proposes its arcs to its
		// component's min-slot. High-degree vertices get their adjacency
		// scanned by a nested parallel loop — the hierarchical strategy of
		// §3.5, which keeps power-law hubs from serializing one worker.
		const hubDegree = 1 << 13
		var edgeScans, atomics parutil.Counter
		scanArcs := func(u int32, alo, ahi int64) {
			r := uf.Find(u)
			var scans, props int64
			for a := alo; a < ahi; a++ {
				scans++
				v := dst[a]
				if v >= 0 && uf.Find(v) == r {
					continue // self edge at component level
				}
				slots[r].Propose(a, arcLess)
				props++
			}
			edgeScans.Add(scans)
			atomics.Add(props)
		}
		var hubMu sync.Mutex
		var hubs []int32
		parutil.For(len(scanList), 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u := scanList[i]
				if off[u+1]-off[u] >= hubDegree {
					// Defer to the per-hub nested parallel pass below.
					hubMu.Lock()
					hubs = append(hubs, u)
					hubMu.Unlock()
					continue
				}
				scanArcs(u, off[u], off[u+1])
			}
		})
		slices.Sort(hubs)
		for _, u := range hubs {
			alo, ahi := off[u], off[u+1]
			parutil.For(int(ahi-alo), 1<<12, func(lo, hi int) {
				scanArcs(u, alo+int64(lo), alo+int64(hi))
			})
		}
		rw.EdgesScanned += edgeScans.Load()
		rw.AtomicOps += atomics.Load()

		// Hook phase A: snapshot every live root's winner before any union
		// runs, so the set of contractions (and therefore every counter)
		// is independent of goroutine scheduling.
		type winner struct {
			root int32
			arc  int64
		}
		var frozenNow parutil.Counter
		var winMu sync.Mutex
		var winners []winner
		parutil.For(n, 1<<12, func(lo, hi int) {
			var local []winner
			for r := lo; r < hi; r++ {
				if uf.Find(int32(r)) != int32(r) {
					continue
				}
				a := slots[r].Load()
				if a == parutil.NoEdge {
					continue
				}
				if borderRoot != nil && borderRoot[r].Load() {
					// EXCPT_BORDER_EDGE: the component touches the border
					// and never expands.
					frozenNow.Add(1)
					continue
				}
				if dst[a] < 0 {
					// Lightest edge is a cut edge: exception condition
					// stops this component (§3.2).
					frozenNow.Add(1)
					continue
				}
				local = append(local, winner{root: int32(r), arc: a})
			}
			if len(local) > 0 {
				winMu.Lock()
				winners = append(winners, local...)
				winMu.Unlock()
			}
		})

		// Hook phase B: contract the snapshot. With distinct weights the
		// winner edges form a forest plus mutual pairs, so the set of
		// successful unions — and the chosen edge set — is deterministic.
		var merges parutil.Counter
		var roundChosen []int64
		var rcMu sync.Mutex
		parutil.For(len(winners), 256, func(lo, hi int) {
			var localChosen []int64
			for i := lo; i < hi; i++ {
				w := winners[i]
				root, merged := uf.TryUnion(w.root, dst[w.arc])
				if merged {
					merges.Add(1)
					localChosen = append(localChosen, w.arc)
					nextDirty[root].Store(true)
				}
			}
			if len(localChosen) > 0 {
				rcMu.Lock()
				roundChosen = append(roundChosen, localChosen...)
				rcMu.Unlock()
			}
		})
		rw.AtomicOps += merges.Load()
		uf.Flatten()
		rw.VerticesProcessed += int64(n) // flatten pass

		chosenMu.Lock()
		for _, a := range roundChosen {
			res.ChosenIDs = append(res.ChosenIDs, eid[a])
			res.ChosenWeight += wgt[a]
		}
		chosenMu.Unlock()

		m := int(merges.Load())
		res.RoundMerges = append(res.RoundMerges, m)
		res.Rounds = round
		res.Work.Add(rw)
		frozen = frozenNow.Load()

		if m == 0 {
			break
		}
		if opt.Terminator != nil && opt.Terminator(round, rw, m) {
			break
		}

		// Rotate dirty sets and reset slots. A root that merged must be
		// rescanned; everything else is stable.
		for i := range dirty {
			dirty[i].Store(nextDirty[i].Load())
			nextDirty[i].Store(false)
		}
		parutil.ResetMinSlots(slots)

		// Graph contraction (Sousa et al. [7]): drop component-internal
		// arcs from the working adjacency so later rounds skip them.
		if opt.Contract {
			counts := make([]int64, n+1)
			parutil.For(n, 1<<12, func(lo, hi int) {
				for u := lo; u < hi; u++ {
					r := uf.Find(int32(u))
					var keep int64
					for a := off[u]; a < off[u+1]; a++ {
						if v := dst[a]; v < 0 || uf.Find(v) != r {
							keep++
						}
					}
					counts[u+1] = keep
				}
			})
			res.Work.EdgesScanned += int64(len(dst)) // the filter pass
			for i := 0; i < n; i++ {
				counts[i+1] += counts[i]
			}
			total := counts[n]
			nDst := make([]int32, total)
			nEid := make([]int32, total)
			nWgt := make([]uint64, total)
			parutil.For(n, 1<<12, func(lo, hi int) {
				for u := lo; u < hi; u++ {
					r := uf.Find(int32(u))
					k := counts[u]
					for a := off[u]; a < off[u+1]; a++ {
						if v := dst[a]; v < 0 || uf.Find(v) != r {
							nDst[k] = dst[a]
							nEid[k] = eid[a]
							nWgt[k] = wgt[a]
							k++
						}
					}
				}
			})
			off, dst, eid, wgt = counts, nDst, nEid, nWgt
		}
	}

	res.FrozenComponents = int(frozen)
	res.Parent = make([]int32, n)
	parutil.For(n, 1<<13, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			res.Parent[u] = l.IDs[uf.Find(int32(u))]
		}
	})
	res.Components = uf.CountSets()
	slices.Sort(res.ChosenIDs)
	return res
}
