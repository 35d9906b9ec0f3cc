// Package bsp implements the baseline the paper compares against: a
// Pregel+-style bulk-synchronous-parallel minimum spanning forest
// (Yan et al., WWW 2015). The computation is organized into supersteps with
// a global barrier after each; vertices are hash-free 1D partitioned;
// messages are combined per component before leaving a rank (Pregel+'s
// combiner); and component resolution uses distributed pointer jumping.
//
// Each Boruvka round costs several supersteps: candidate collection at the
// component roots, partner probing with mutual-pair resolution, pointer
// jumping until the component forest flattens, component relabeling of
// vertices, and a ghost update that re-sends the component of every
// boundary vertex to its neighbours — the per-round, all-boundary
// communication that makes BSP approaches communication-bound (§5.2).
package bsp

import (
	"context"
	"fmt"
	"slices"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/mst"
	"mndmst/internal/partition"
	"mndmst/internal/wire"
)

// Result bundles the BSP forest with the simulated-time report.
type Result struct {
	Forest *mst.Forest
	Report *cluster.Report
	// Rounds is the number of Boruvka rounds.
	Rounds int
	// Supersteps is the total number of global supersteps executed.
	Supersteps int
}

// Phase labels.
const (
	PhaseLoad    = "load"
	PhaseCompute = "superstep-compute"
	PhaseGather  = "gather"
)

// Options configures the baseline.
type Options struct {
	// Combining enables Pregel+'s message combiner: lightest-edge
	// candidates are combined per component before leaving a rank, and
	// ghost updates are deduplicated per (rank, vertex). Disabling it
	// models vanilla Pregel, which ships one message per vertex/arc.
	Combining bool
}

// DefaultOptions returns the Pregel+ configuration the paper compares
// against (combining on).
func DefaultOptions() Options { return Options{Combining: true} }

// Run executes the BSP minimum spanning forest on p ranks of the machine
// (CPU only — Pregel+ is a CPU framework) with default options. A ctx that
// fires mid-run aborts the cluster (cluster.Run) and Run returns its error.
func Run(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine) (*Result, error) {
	return RunWith(ctx, el, p, machine, DefaultOptions())
}

// RunWith is Run with explicit options.
func RunWith(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, opt Options) (*Result, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	cpu := &device.CPU{Model: machine.CPU}
	c := cluster.New(p, machine.Comm)
	var forest *mst.Forest
	rounds := make([]int, p)
	steps := make([]int, p)
	rep, err := c.Run(ctx, func(r *cluster.Rank) error {
		w := &worker{r: r, cpu: cpu, el: el, opt: opt}
		f, err := w.run()
		if err != nil {
			return err
		}
		rounds[r.ID()] = w.rounds
		steps[r.ID()] = w.supersteps
		if f != nil {
			forest = f
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if forest == nil {
		return nil, fmt.Errorf("bsp: no rank produced the forest")
	}
	return &Result{Forest: forest, Report: rep, Rounds: rounds[0], Supersteps: steps[0]}, nil
}

// cand is a combined lightest-edge candidate for one component.
type cand struct {
	comp  int32 // the component the candidate belongs to
	other int32 // the component on the other side
	w     uint64
	eid   int32
}

type worker struct {
	r   *cluster.Rank
	cpu device.Device
	el  *graph.EdgeList
	opt Options

	lo, hi int32
	bounds []int32

	// win is the rank's window: arcs out of [lo, hi). A self arc at
	// component level is retired past its vertex's live end, forever.
	win *boruvka.Local

	comp   []int32         // per local vertex: current component id
	ghost  map[int32]int32 // neighbour vertex → its component
	parent map[int32]int32 // components rooted here → parent pointer
	chosen []int32

	rounds     int
	supersteps int
}

func (w *worker) owner(v int32) int { return partition.OwnerOf(w.bounds, v) }

// exchangeAll performs one superstep of communication: an all-to-all
// personalized exchange followed by the BSP barrier. payloads[w.r.ID()] is
// ignored; the returned slice holds the received payload per source rank.
func (w *worker) exchangeAll(payloads [][]byte) [][]byte {
	in := w.r.Alltoall(payloads)
	in[w.r.ID()] = nil
	w.r.Barrier()
	w.supersteps++
	return in
}

// tagForest marks the final result gather; superstep exchanges go through
// the cluster's Alltoall collective.
const tagForest = 208

// run executes the full BSP MSF for one rank.
func (w *worker) run() (*mst.Forest, error) {
	r := w.r
	r.SetPhase(PhaseLoad)
	bounds, deg, work := partition.ReadBounds(r, w.el, partition.ByDegree, nil)
	w.bounds = bounds
	w.lo, w.hi = bounds[r.ID()], bounds[r.ID()+1]
	w.win = boruvka.NewWindow(w.el, deg, w.lo, w.hi)
	work.EdgesScanned += w.win.NumEdges
	w.cpuCharge(work)
	// Pregel+ then copies the adjacency of its vertices, one scan per CSR
	// arc: a self-loop counts twice.
	var arcs int64
	for _, d := range deg[w.lo:w.hi] {
		arcs += d
	}
	w.cpuCharge(cost.Work{EdgesScanned: arcs})

	n := int(w.hi - w.lo)
	w.comp = make([]int32, n)
	for i := range w.comp {
		w.comp[i] = w.lo + int32(i)
	}
	w.ghost = make(map[int32]int32)
	// Initial ghost components: every vertex is its own component, so the
	// ghost map starts as the identity — no superstep needed.

	r.SetPhase(PhaseCompute)
	for {
		w.rounds++
		merges, err := w.round()
		if err != nil {
			return nil, err
		}
		total := r.AllreduceScalar(int64(merges), cluster.OpSum)
		w.supersteps++
		if total == 0 {
			break
		}
	}

	// Gather the forest at rank 0.
	r.SetPhase(PhaseGather)
	if r.ID() != 0 {
		r.Send(0, tagForest, wire.AppendInt32s(nil, w.chosen))
		return nil, nil
	}
	all := append([]int32(nil), w.chosen...)
	for src := 1; src < r.P(); src++ {
		ids, _, err := wire.TakeInt32s(r.Recv(src, tagForest))
		if err != nil {
			return nil, err
		}
		all = append(all, ids...)
	}
	slices.Sort(all)
	f := &mst.Forest{EdgeIDs: all}
	for _, id := range all {
		f.TotalWeight += w.el.Edges[id].W
	}
	f.Components = int(w.el.N) - len(all)
	return f, nil
}

func (w *worker) cpuCharge(work cost.Work) { w.r.Compute(w.cpu.Price(work)) }

// compOf resolves a global vertex to its current component.
func (w *worker) compOf(v int32) int32 {
	if v >= w.lo && v < w.hi {
		return w.comp[v-w.lo]
	}
	if c, ok := w.ghost[v]; ok {
		return c
	}
	return v // not yet updated: still a singleton
}

// round performs one Boruvka round; returns the number of merges recorded
// locally (for the global termination allreduce).
func (w *worker) round() (int, error) {
	p := w.r.P()
	me := w.r.ID()
	var work cost.Work
	work.Iterations = 1

	// --- Superstep 1: lightest-edge candidates ---
	best := map[int32]cand{} // comp → best local candidate (combined)
	var vertexCands []cand   // per-vertex minima (vanilla Pregel mode)
	n := int(w.hi - w.lo)
	for v := 0; v < n; v++ {
		cv := w.comp[v]
		vBest := cand{w: ^uint64(0)}
		w.win.Retain(v, func(h int32, wt uint64) bool {
			work.EdgesScanned++
			cu := w.compOf(w.win.Global(h))
			if cu == cv {
				if int(h) == v { // a self-loop's second CSR arc dies too
					work.EdgesScanned++
				}
				return false
			}
			if graph.WeightLess(wt, vBest.w) {
				vBest = cand{comp: cv, other: cu, w: wt, eid: graph.EdgeID(wt)}
			}
			cd, ok := best[cv]
			if !ok || graph.WeightLess(wt, cd.w) {
				best[cv] = cand{comp: cv, other: cu, w: wt, eid: graph.EdgeID(wt)}
			}
			work.HashOps++
			return true
		})
		if !w.opt.Combining && vBest.w != ^uint64(0) {
			vertexCands = append(vertexCands, vBest)
		}
		work.VerticesProcessed++
	}
	// Bucket candidates by the owner of the component root: combined per
	// component (Pregel+'s combiner), or raw per vertex for vanilla
	// Pregel.
	out := make([][]byte, p)
	localCands := map[int32]cand{}
	if w.opt.Combining {
		for _, c := range sortedKeys(best) {
			cd := best[c]
			o := w.owner(c)
			if o == me {
				merged, ok := localCands[c]
				if !ok || graph.WeightLess(cd.w, merged.w) {
					localCands[c] = cd
				}
				continue
			}
			out[o] = appendCand(out[o], cd)
		}
	} else {
		for _, cd := range vertexCands {
			o := w.owner(cd.comp)
			if o == me {
				merged, ok := localCands[cd.comp]
				if !ok || graph.WeightLess(cd.w, merged.w) {
					localCands[cd.comp] = cd
				}
				continue
			}
			out[o] = appendCand(out[o], cd)
		}
	}
	in := w.exchangeAll(out)
	for src, buf := range in {
		if src == me {
			continue
		}
		cds, err := takeCands(buf)
		if err != nil {
			return 0, err
		}
		for _, cd := range cds {
			cur, ok := localCands[cd.comp]
			if !ok || graph.WeightLess(cd.w, cur.w) {
				localCands[cd.comp] = cd
			}
			work.HashOps++
		}
	}

	// Roots alive here: local vertices that are their own component.
	w.parent = map[int32]int32{}
	chosenEdge := map[int32]cand{}
	for v := 0; v < n; v++ {
		c := w.lo + int32(v)
		if w.comp[v] == c {
			if cd, ok := localCands[c]; ok {
				chosenEdge[c] = cd
				w.parent[c] = cd.other
			} else {
				w.parent[c] = c
			}
		}
	}

	// --- Superstep 2: probe partners to detect mutual pairs ---
	probes := map[int32][]int32{} // partner → list of askers (local fast path)
	pairLists := make([][]int32, p)
	for _, c := range sortedKeys(chosenEdge) {
		b := chosenEdge[c].other
		o := w.owner(b)
		if o == me {
			probes[b] = append(probes[b], c)
			continue
		}
		pairLists[o] = append(pairLists[o], c, b)
	}
	out = make([][]byte, p)
	for d := range pairLists {
		out[d] = wire.AppendInt32s(nil, pairLists[d])
	}
	in = w.exchangeAll(out)
	// Answer probes: reply with (asker, partnerOfB).
	replyLists := make([][]int32, p)
	for src, buf := range in {
		if src == me {
			continue
		}
		pairs, _, err := wire.TakeInt32s(buf)
		if err != nil {
			return 0, err
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			asker, b := pairs[i], pairs[i+1]
			pb := b
			if cd, ok := chosenEdge[b]; ok {
				pb = cd.other
			}
			replyLists[src] = append(replyLists[src], asker, pb)
			work.HashOps++
		}
	}
	out = make([][]byte, p)
	for d := range replyLists {
		out[d] = wire.AppendInt32s(nil, replyLists[d])
	}
	in = w.exchangeAll(out)

	partnerOf := map[int32]int32{}  // comp → partner's partner
	for b, askers := range probes { // local fast path
		pb := b
		if cd, ok := chosenEdge[b]; ok {
			pb = cd.other
		}
		for _, a := range askers {
			partnerOf[a] = pb
		}
	}
	for src, buf := range in {
		if src == me {
			continue
		}
		pairs, _, err := wire.TakeInt32s(buf)
		if err != nil {
			return 0, err
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			partnerOf[pairs[i]] = pairs[i+1]
		}
	}

	// Resolve: mutual pairs keep the smaller id as root; record MST edges.
	merges := 0
	for _, c := range sortedKeys(chosenEdge) {
		cd := chosenEdge[c]
		b := cd.other
		pb, ok := partnerOf[c]
		if !ok {
			return 0, fmt.Errorf("bsp: no probe reply for comp %d", c)
		}
		if pb == c { // mutual pair
			if c < b {
				w.parent[c] = c
				w.chosen = append(w.chosen, cd.eid)
				merges++
			} else {
				w.parent[c] = b
			}
		} else {
			w.parent[c] = b
			w.chosen = append(w.chosen, cd.eid)
			merges++
		}
	}

	// --- Supersteps 3..: distributed pointer jumping ---
	for {
		out = make([][]byte, p)
		queryLists := make([][]int32, p)
		changedLocal := int64(0)
		for _, c := range sortedKeys(w.parent) {
			pt := w.parent[c]
			if pt == c {
				continue
			}
			o := w.owner(pt)
			if o == me {
				gp, ok := w.parent[pt]
				if !ok {
					gp = pt
				}
				if w.parent[c] != gp {
					w.parent[c] = gp
					changedLocal++
				}
				continue
			}
			queryLists[o] = append(queryLists[o], c, pt)
			work.HashOps++
		}
		for d := range queryLists {
			out[d] = wire.AppendInt32s(nil, queryLists[d])
		}
		in = w.exchangeAll(out)
		replyLists = make([][]int32, p)
		for src, buf := range in {
			if src == me {
				continue
			}
			pairs, _, err := wire.TakeInt32s(buf)
			if err != nil {
				return 0, err
			}
			for i := 0; i+1 < len(pairs); i += 2 {
				c, pt := pairs[i], pairs[i+1]
				gp, ok := w.parent[pt]
				if !ok {
					gp = pt
				}
				replyLists[src] = append(replyLists[src], c, gp)
			}
		}
		out = make([][]byte, p)
		for d := range replyLists {
			out[d] = wire.AppendInt32s(nil, replyLists[d])
		}
		in = w.exchangeAll(out)
		for src, buf := range in {
			if src == me {
				continue
			}
			pairs, _, err := wire.TakeInt32s(buf)
			if err != nil {
				return 0, err
			}
			for i := 0; i+1 < len(pairs); i += 2 {
				c, gp := pairs[i], pairs[i+1]
				if w.parent[c] != gp {
					w.parent[c] = gp
					changedLocal++
				}
			}
		}
		totalChanged := w.r.AllreduceScalar(changedLocal, cluster.OpSum)
		w.supersteps++
		if totalChanged == 0 {
			break
		}
	}

	// --- Superstep: relabel local vertices to final roots ---
	// Collect distinct referenced components, resolve remote ones.
	need := map[int32]bool{}
	for v := 0; v < n; v++ {
		need[w.comp[v]] = true
	}
	resolved := map[int32]int32{}
	queryLists := make([][]int32, p)
	for _, c := range sortedKeys(need) {
		o := w.owner(c)
		if o == me {
			root, ok := w.parent[c]
			if !ok {
				root = c
			}
			resolved[c] = root
			continue
		}
		queryLists[o] = append(queryLists[o], c)
	}
	out = make([][]byte, p)
	for d := range queryLists {
		out[d] = wire.AppendInt32s(nil, queryLists[d])
	}
	in = w.exchangeAll(out)
	replyLists = make([][]int32, p)
	for src, buf := range in {
		if src == me {
			continue
		}
		comps, _, err := wire.TakeInt32s(buf)
		if err != nil {
			return 0, err
		}
		for _, c := range comps {
			root, ok := w.parent[c]
			if !ok {
				root = c
			}
			replyLists[src] = append(replyLists[src], c, root)
		}
	}
	out = make([][]byte, p)
	for d := range replyLists {
		out[d] = wire.AppendInt32s(nil, replyLists[d])
	}
	in = w.exchangeAll(out)
	for src, buf := range in {
		if src == me {
			continue
		}
		pairs, _, err := wire.TakeInt32s(buf)
		if err != nil {
			return 0, err
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			resolved[pairs[i]] = pairs[i+1]
		}
	}
	for v := 0; v < n; v++ {
		if root, ok := resolved[w.comp[v]]; ok {
			w.comp[v] = root
		}
		work.VerticesProcessed++
	}

	// --- Superstep: ghost update (the per-round boundary broadcast) ---
	sent := make([]map[int32]bool, p)
	ghostLists := make([][]int32, p)
	for v := 0; v < n; v++ {
		gv := w.lo + int32(v)
		dst, _ := w.win.Arcs(v)
		for _, h := range dst {
			if h >= 0 { // local heads need no ghost update
				continue
			}
			o := w.owner(^h)
			if w.opt.Combining {
				// Deduplicate per (rank, vertex) — the combiner.
				if sent[o] == nil {
					sent[o] = map[int32]bool{}
				}
				if sent[o][gv] {
					continue
				}
				sent[o][gv] = true
			}
			ghostLists[o] = append(ghostLists[o], gv, w.comp[v])
			work.HashOps++
		}
	}
	out = make([][]byte, p)
	for d := range ghostLists {
		out[d] = wire.AppendInt32s(nil, ghostLists[d])
	}
	in = w.exchangeAll(out)
	for src, buf := range in {
		if src == me {
			continue
		}
		pairs, _, err := wire.TakeInt32s(buf)
		if err != nil {
			return 0, err
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			w.ghost[pairs[i]] = pairs[i+1]
			work.HashOps++
		}
	}

	w.cpuCharge(work)
	return merges, nil
}

// sortedKeys returns m's keys in ascending order, for deterministic
// iteration.
func sortedKeys[V any](m map[int32]V) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendCand serializes one candidate.
func appendCand(buf []byte, c cand) []byte {
	buf = wire.AppendUint64(buf, uint64(uint32(c.comp))<<32|uint64(uint32(c.other)))
	buf = wire.AppendUint64(buf, c.w)
	buf = wire.AppendUint64(buf, uint64(uint32(c.eid)))
	return buf
}

// takeCands parses a candidate list (three uint64 per entry).
func takeCands(buf []byte) ([]cand, error) {
	if len(buf)%24 != 0 {
		return nil, fmt.Errorf("bsp: candidate buffer length %d", len(buf))
	}
	out := make([]cand, 0, len(buf)/24)
	for len(buf) > 0 {
		packed, rest, err := wire.TakeUint64(buf)
		if err != nil {
			return nil, err
		}
		wgt, rest, err := wire.TakeUint64(rest)
		if err != nil {
			return nil, err
		}
		eid, rest, err := wire.TakeUint64(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, cand{
			comp:  int32(uint32(packed >> 32)),
			other: int32(uint32(packed)),
			w:     wgt,
			eid:   int32(uint32(eid)),
		})
		buf = rest
	}
	return out, nil
}
