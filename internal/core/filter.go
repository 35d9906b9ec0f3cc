package core

import (
	"slices"
	"sync"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/dsu"
	"mndmst/internal/graph"
	"mndmst/internal/merge"
	"mndmst/internal/mst"
)

// Filter-Borůvka (Sanders & Schimek 2023), an extension beyond the paper:
// a filtered run solves the edges at or below a sampled pivot weight
// first (the light pass), then runs the same pipeline again over the
// heavier edges that join two different light components (the heavy
// pass). An edge heavier than the pivot whose endpoints a light path
// already joins closes a cycle of lighter edges, so it is in no minimum
// spanning forest; on dense graphs most heavy edges are such edges, and
// no rank ever lists them for indComp or the merges. The forest is the
// light forest plus the heavy edges' forest. When the heavy edges fit one
// rank's share they skip the pipeline, as Algorithm 1's residual graph
// does once it fits one rank: rank 0 post-processes them, charged to the
// postProcess phase. Every other step the passes do not already charge —
// the sample, the pivot collective, the light forest's broadcast, the
// union-find work and the two filter scans — is charged to the partition
// phase.

// filterDensity is the edges-per-vertex ratio at and above which a
// filtered run solves the light edges first: at m = 4n it breaks even
// and at 5n it wins, and the win grows with the density. The light share
// q = filterLightPerVertex·n/m keeps about two light edges per vertex.
const (
	filterDensity        = 5
	filterLightPerVertex = 2
)

// filterSamples is the number of edge weights all ranks sample together
// to pick the pivot; each rank draws its share from its own chunk.
const filterSamples = 1024

// filterSeed seeds every rank's sample; rank r draws from filterSeed + r,
// so a run's pivot depends only on the graph and the rank count.
const filterSeed = 0x6d6e646d7374

// filterFires reports whether a filtered run splits el: every rank
// decides the same way from n and m alone.
func filterFires(el *graph.EdgeList) bool {
	return el.N > 0 && int64(len(el.Edges)) >= filterDensity*int64(el.N)
}

// runFiltered is run's filtered form: the pivot, the light pass, the light
// forest's broadcast and filter, then the heavy edges. When the heavy list
// fits one rank's share — the merge threshold over the job's edges, the
// size at which Algorithm 1 merges a group to its leader — rank 0
// post-processes it and no rank sends anything more; otherwise the heavy
// pass runs the whole pipeline, which keeps §3.4's per-rank memory bound.
// Every rank decides the same way from the same heavy list. Iterations,
// levels and the peak accumulate over the passes.
func (m *rankMain) runFiltered() (*mst.Forest, error) {
	r := m.r
	r.SetPhase(PhasePartition)
	// The rank's chunk of the job's edges, the share partition.ReadBounds
	// reads.
	e := len(m.el.Edges)
	lo, hi := r.ID()*e/r.P(), (r.ID()+1)*e/r.P()
	pivot := m.samplePivot(lo, hi)
	// The split scan: each rank classifies its chunk against the pivot.
	m.rt.ChargeWork(cost.Work{EdgesScanned: int64(hi - lo)})
	if err := m.pass(m.lists.lightOf(m.el, pivot)); err != nil {
		return nil, err
	}
	light, err := m.gather()
	if err != nil {
		return nil, err
	}

	r.SetPhase(PhasePartition)
	if light, err = m.broadcastForest(light); err != nil {
		return nil, err
	}
	heavy := m.lists.heavyOf(m.el, pivot, light)
	// Every rank unions the light forest and numbers its components (one
	// find per vertex), then filters its chunk's heavy edges.
	m.rt.ChargeWork(cost.Work{HashOps: int64(len(light)) + int64(m.el.N), EdgesScanned: int64(hi - lo)})
	m.chosen = nil
	var ids []int32
	if int64(len(heavy.Edges)) <= mergeThreshold(m.cfg, e, r.P()) {
		r.SetPhase(PhasePostProcess)
		if r.ID() == 0 && len(heavy.Edges) > 0 {
			m.peak = max(m.peak, len(heavy.Edges))
			comps := make([]int32, heavy.N)
			for i := range comps {
				comps[i] = int32(i)
			}
			if ids, err = m.rt.PostProcess(comps, heavy.Edges); err != nil {
				return nil, err
			}
		}
	} else {
		if err := m.pass(heavy); err != nil {
			return nil, err
		}
		if ids, err = m.gather(); err != nil {
			return nil, err
		}
	}
	if r.ID() != 0 {
		return nil, nil
	}
	return mst.ForestOf(m.el, append(ids, light...)), nil
}

// samplePivot draws this rank's share of filterSamples packed weights
// from its chunk [lo, hi) of the job's edges, and one allreduce gives
// every rank all of them; the pivot is their q-quantile, which the first
// rank of the process to need it selects for all its ranks. A rank with
// an empty chunk contributes no samples.
func (m *rankMain) samplePivot(lo, hi int) uint64 {
	r := m.r
	p, id := r.P(), r.ID()
	s := max(1, filterSamples/p)
	vals := make([]int64, p*s)
	mine := vals[id*s : (id+1)*s]
	x := uint64(filterSeed + id)
	for i := range mine {
		if hi == lo {
			mine[i] = -1
			continue
		}
		x = splitmix64(x)
		mine[i] = int64(m.el.Edges[lo+int(x%uint64(hi-lo))].W)
	}
	m.rt.ChargeWork(cost.Work{EdgesScanned: int64(len(mine))})
	return m.lists.pivotOf(m.el, r.Allreduce(vals, cluster.OpSum))
}

// splitmix64 advances a SplitMix64 state and returns its next output.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// broadcastForest sends rank 0's edge ids to every rank down a binomial
// tree, ⌈log2 p⌉ rounds and p − 1 messages, and returns them on every
// rank.
func (m *rankMain) broadcastForest(ids []int32) ([]int32, error) {
	r, id := m.r, m.r.ID()
	for k := 1; k < r.P(); k <<= 1 {
		switch {
		case id < k && id+k < r.P():
			merge.SendForest(r, id+k, ids, m.cfg.Chunk)
		case id >= k && id < 2*k:
			var err error
			if ids, err = merge.RecvForest(r, id-k, nil); err != nil {
				return nil, err
			}
		}
	}
	return ids, nil
}

// filterLists holds a filtered run's pivot and two inputs for the ranks
// one process hosts. Every rank derives them the same way from the same
// samples, pivot and light forest, so the first rank to need one selects
// or builds it and the others share it, as they share the job's edge
// list; each rank is still charged its own part of the work.
type filterLists struct {
	pivotOnce, lightOnce, heavyOnce sync.Once
	pivot                           uint64
	light, heavy                    *graph.EdgeList
}

// pivotOf returns the pivot: the q-quantile of vals, every rank's samples
// after the allreduce, in which an empty chunk's slots are -1. It sorts
// vals.
func (f *filterLists) pivotOf(el *graph.EdgeList, vals []int64) uint64 {
	f.pivotOnce.Do(func() {
		slices.Sort(vals)
		i, _ := slices.BinarySearch(vals, 0)
		vals = vals[i:] // the ranks' samples, without the empty chunks' slots
		q := float64(filterLightPerVertex) * float64(el.N) / float64(len(el.Edges))
		f.pivot = uint64(vals[min(int(q*float64(len(vals))), len(vals)-1)])
	})
	return f.pivot
}

// lightOf returns the light pass's input: el's edges of weight at most
// pivot, self-loops left out, in edge order.
func (f *filterLists) lightOf(el *graph.EdgeList, pivot uint64) *graph.EdgeList {
	f.lightOnce.Do(func() {
		// The pivot is the sample's q-quantile, so about q·m = 2n edges
		// are light; a quarter more room makes a second allocation rare.
		f.light = &graph.EdgeList{N: el.N, Edges: make([]graph.Edge, 0, filterLightPerVertex*int(el.N)*5/4)}
		for _, e := range el.Edges {
			if e.U != e.V && !graph.WeightLess(pivot, e.W) {
				f.light.Edges = append(f.light.Edges, e)
			}
		}
	})
	return f.light
}

// heavyOf returns the heavy pass's input. It unions the light forest's
// edges and numbers the light components densely, in the order of each
// one's least vertex; the input has a vertex per light component and
// holds every edge heavier than pivot whose endpoints lie in two
// different ones, relabelled, in edge order.
func (f *filterLists) heavyOf(el *graph.EdgeList, pivot uint64, forest []int32) *graph.EdgeList {
	f.heavyOnce.Do(func() {
		d := dsu.New(int(el.N))
		for _, id := range forest {
			d.Union(el.Edges[id].U, el.Edges[id].V)
		}
		// comp[v] is v's component number. A root's number is set when
		// the component's least vertex is reached, which the root itself
		// may come after.
		comp := make([]int32, el.N)
		for v := range comp {
			comp[v] = -1
		}
		var n int32
		for v := range el.N {
			root := d.Find(v)
			if comp[root] < 0 {
				comp[root] = n
				n++
			}
			comp[v] = comp[root]
		}
		f.heavy = &graph.EdgeList{N: n}
		for _, e := range el.Edges {
			if !graph.WeightLess(pivot, e.W) {
				continue
			}
			if cu, cv := comp[e.U], comp[e.V]; cu != cv {
				f.heavy.Edges = append(f.heavy.Edges, graph.Edge{U: cu, V: cv, W: e.W})
			}
		}
	})
	return f.heavy
}
