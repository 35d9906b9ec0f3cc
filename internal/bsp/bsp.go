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
	"encoding/binary"
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
	res := &Result{}
	rep, err := cluster.New(p, machine.Comm).Run(ctx, func(r *cluster.Rank) error {
		w := &worker{r: r, cpu: cpu, el: el, opt: opt}
		f, err := w.run()
		if err == nil && f != nil {
			res.Forest, res.Rounds, res.Supersteps = f, w.rounds, w.supersteps
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Report = rep
	return res, nil
}

// cand is a lightest-edge candidate for one component. Its weight packs
// the edge's id.
type cand struct {
	comp  int32 // the component the candidate belongs to
	other int32 // the component on the other side
	w     uint64
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

// exchange performs one superstep of communication: out[d] goes to rank d
// through cluster.Exchange, followed by the BSP barrier. The result holds
// the list received from each source rank (nil for this rank).
func exchange[T any](w *worker, out [][]T, encode func([]T) []byte, decode func([]byte) ([]T, error)) ([][]T, error) {
	in, err := cluster.Exchange(w.r, out, encode, decode)
	if err != nil {
		return nil, err
	}
	w.r.Barrier()
	w.supersteps++
	return in, nil
}

// ask performs a query superstep and its reply superstep. queries[d]
// holds entries of stride values for rank d, each led by a key; rank d
// answers an entry with (key, answer(its last value)), and take receives
// every (key, answer) pair that comes back.
func (w *worker) ask(queries [][]int32, stride int, answer func(int32) int32, take func(key, val int32)) error {
	in, err := exchange(w, queries, wire.EncodeInt32s, wire.DecodeInt32s)
	if err != nil {
		return err
	}
	replies := make([][]int32, len(in))
	for src, q := range in {
		for i := 0; i+stride <= len(q); i += stride {
			replies[src] = append(replies[src], q[i], answer(q[i+stride-1]))
		}
	}
	if in, err = exchange(w, replies, wire.EncodeInt32s, wire.DecodeInt32s); err != nil {
		return err
	}
	for _, pairs := range in {
		for i := 0; i+1 < len(pairs); i += 2 {
			take(pairs[i], pairs[i+1])
		}
	}
	return nil
}

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
	parts := r.Gather(wire.EncodeInt32s(w.chosen))
	if parts == nil {
		return nil, nil
	}
	var all []int32
	for _, buf := range parts {
		ids, err := wire.DecodeInt32s(buf)
		if err != nil {
			return nil, err
		}
		all = append(all, ids...)
	}
	return mst.ForestOf(w.el, all), nil
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
	var cands []cand         // the candidates that leave their vertex or component
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
				vBest = cand{comp: cv, other: cu, w: wt}
			}
			cd, ok := best[cv]
			if !ok || graph.WeightLess(wt, cd.w) {
				best[cv] = cand{comp: cv, other: cu, w: wt}
			}
			work.HashOps++
			return true
		})
		if !w.opt.Combining && vBest.w != ^uint64(0) {
			cands = append(cands, vBest)
		}
		work.VerticesProcessed++
	}
	if w.opt.Combining {
		// Pregel+'s combiner: one candidate per component leaves the rank.
		for _, c := range sortedKeys(best) {
			cands = append(cands, best[c])
		}
	}
	// Ship each candidate to the owner of its component root, which keeps
	// the lightest per component.
	localCands := map[int32]cand{}
	offer := func(cd cand) {
		if cur, ok := localCands[cd.comp]; !ok || graph.WeightLess(cd.w, cur.w) {
			localCands[cd.comp] = cd
		}
	}
	lists := make([][]cand, p)
	for _, cd := range cands {
		if o := w.owner(cd.comp); o != me {
			lists[o] = append(lists[o], cd)
		} else {
			offer(cd)
		}
	}
	in, err := exchange(w, lists, encodeCands, decodeCands)
	if err != nil {
		return 0, err
	}
	for _, cds := range in {
		for _, cd := range cds {
			offer(cd)
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
	// partner is the component c chose to merge with, or c itself.
	partner := func(c int32) int32 {
		if cd, ok := chosenEdge[c]; ok {
			return cd.other
		}
		return c
	}
	partnerOf := map[int32]int32{} // comp → partner's partner
	probes := make([][]int32, p)
	for _, c := range sortedKeys(chosenEdge) {
		b := chosenEdge[c].other
		if o := w.owner(b); o != me {
			probes[o] = append(probes[o], c, b)
		} else {
			partnerOf[c] = partner(b)
		}
	}
	err = w.ask(probes, 2, func(b int32) int32 {
		work.HashOps++
		return partner(b)
	}, func(c, pb int32) { partnerOf[c] = pb })
	if err != nil {
		return 0, err
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
				w.chosen = append(w.chosen, graph.EdgeID(cd.w))
				merges++
			} else {
				w.parent[c] = b
			}
		} else {
			w.parent[c] = b
			w.chosen = append(w.chosen, graph.EdgeID(cd.w))
			merges++
		}
	}

	// --- Supersteps 3..: distributed pointer jumping ---
	// root is c's parent pointer here, or c itself.
	root := func(c int32) int32 {
		if pt, ok := w.parent[c]; ok {
			return pt
		}
		return c
	}
	for {
		queries := make([][]int32, p)
		changedLocal := int64(0)
		jump := func(c, gp int32) {
			if w.parent[c] != gp {
				w.parent[c] = gp
				changedLocal++
			}
		}
		for _, c := range sortedKeys(w.parent) {
			pt := w.parent[c]
			if pt == c {
				continue
			}
			if o := w.owner(pt); o != me {
				queries[o] = append(queries[o], c, pt)
				work.HashOps++
			} else {
				jump(c, root(pt))
			}
		}
		if err := w.ask(queries, 2, root, jump); err != nil {
			return 0, err
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
	queries := make([][]int32, p)
	for _, c := range sortedKeys(need) {
		if o := w.owner(c); o != me {
			queries[o] = append(queries[o], c)
		} else {
			resolved[c] = root(c)
		}
	}
	if err := w.ask(queries, 1, root, func(c, rt int32) { resolved[c] = rt }); err != nil {
		return 0, err
	}
	for v := 0; v < n; v++ {
		if rt, ok := resolved[w.comp[v]]; ok {
			w.comp[v] = rt
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
	ghosts, err := exchange(w, ghostLists, wire.EncodeInt32s, wire.DecodeInt32s)
	if err != nil {
		return 0, err
	}
	for _, pairs := range ghosts {
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

// candBytes is the encoded size of one candidate: the packed (comp,
// other) pair and the weight, which holds the edge id, each a
// little-endian uint64.
const candBytes = 16

// encodeCands serializes a candidate list; an empty list is an empty
// payload.
func encodeCands(cs []cand) []byte {
	buf := make([]byte, 0, candBytes*len(cs))
	for _, c := range cs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(uint32(c.comp))<<32|uint64(uint32(c.other)))
		buf = binary.LittleEndian.AppendUint64(buf, c.w)
	}
	return buf
}

// decodeCands parses an encodeCands payload.
func decodeCands(buf []byte) ([]cand, error) {
	if len(buf)%candBytes != 0 {
		return nil, fmt.Errorf("bsp: candidate buffer length %d", len(buf))
	}
	out := make([]cand, len(buf)/candBytes)
	for i := range out {
		b := buf[candBytes*i:]
		packed := binary.LittleEndian.Uint64(b)
		out[i] = cand{comp: int32(uint32(packed >> 32)), other: int32(uint32(packed)), w: binary.LittleEndian.Uint64(b[8:])}
	}
	return out, nil
}
