// Package core implements MND-MST, the paper's primary contribution
// (Algorithm 1): the multi-node multi-device divide-and-conquer minimum
// spanning forest. Each rank partitions the graph (Gemini-style 1D by
// degree), runs independent Boruvka computations on its devices with the
// border-vertex exception condition, reduces its data (self- and
// multi-edge removal with ghost parent exchanges), and participates in the
// hierarchical merging of §3.4 — ring-based segment exchange within groups
// followed by merges to group leaders, level by level, until a single rank
// holds the residual component graph and post-processes it into the final
// forest.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/merge"
	"mndmst/internal/mst"
	"mndmst/internal/partition"
	"mndmst/internal/transport"
)

// Phase labels used for the Figure 7 breakdown.
const (
	PhasePartition   = "partition"
	PhaseIndComp     = "indComp"
	PhaseMerge       = "merge"
	PhasePostProcess = "postProcess"
	PhaseGather      = "gather"
)

// Result bundles the computed forest with the simulated-time report.
type Result struct {
	Forest *mst.Forest
	Report *cluster.Report
	// Iterations is the number of indComp→mergeParts iterations executed,
	// summed over both passes of a filtered run. A filtered run whose
	// heavy edges fit one rank post-processes them on rank 0 and adds
	// none.
	Iterations int
	// Levels is the number of hierarchical-merging levels (leader merges),
	// summed over both passes of a filtered run; post-processed heavy
	// edges add none.
	Levels int
	// PeakEdges is the maximum number of edge records resident on any
	// single rank at any point — the space bottleneck hierarchical
	// merging bounds (§3.4). A filtered run reports the larger of its two
	// passes' peaks, where post-processed heavy edges count as the heavy
	// list rank 0 holds.
	PeakEdges int
}

// Run executes MND-MST on p simulated ranks of the given machine. useGPU
// selects the multi-device (CPU+GPU) mode when the machine has an
// accelerator; otherwise the run is CPU-only. A ctx that fires mid-run
// aborts the cluster (cluster.Run) and Run returns its error.
func Run(ctx context.Context, el *graph.EdgeList, p int, machine cost.Machine, cfg hypar.Config, useGPU bool) (*Result, error) {
	return run(ctx, el, p, nil, machine, cfg, useGPU)
}

// RunDistributed executes this process's rank of MND-MST over a real
// transport endpoint (one OS process per rank). Every worker must be given
// the identical edge list and configuration; the cluster size is the
// transport's P. A worker counts the degrees of its own chunk of the edge
// list and builds only its own rank's window from it; no rank builds a
// global CSR, and the GPU share is estimated from the edge list itself
// (device.EstimateGPUShare). Every rank's Result
// carries the global Iterations, Levels and PeakEdges. On rank 0 it also
// carries the forest and the report gathered from every rank (simulated
// clocks plus real wall-clock per phase); other ranks get a nil Forest and
// a report of their own rank only.
func RunDistributed(ctx context.Context, el *graph.EdgeList, ep transport.Transport, machine cost.Machine, cfg hypar.Config, useGPU bool) (*Result, error) {
	return run(ctx, el, ep.P(), ep, machine, cfg, useGPU)
}

// run is the shared driver: ep == nil simulates all p ranks in-process,
// otherwise only ep's rank executes here.
func run(ctx context.Context, el *graph.EdgeList, p int, ep transport.Transport, machine cost.Machine, cfg hypar.Config, useGPU bool) (*Result, error) {
	// Every rank builds its first-iteration window straight from el, and
	// the GPU share is estimated from el too: no global CSR is built.
	if err := el.Validate(); err != nil {
		return nil, err
	}

	cpu := &device.CPU{Model: machine.CPU}
	// Per-rank devices: on heterogeneous clusters (an extension beyond the
	// paper's homogeneous assumption) each rank's devices are scaled by
	// its node speed.
	rankCPU := func(id int) *device.CPU {
		if s := machine.SpeedOf(id); s != 1 {
			return &device.CPU{Model: machine.CPU.Scaled(s)}
		}
		return cpu
	}
	var gpu *device.GPU // one accelerator; nil runs CPU only
	k := max(1, cfg.GPUsPerNode)
	if useGPU && machine.GPU != nil {
		gpu = &device.GPU{Model: *machine.GPU}
		if cfg.GPUShare == 0 {
			// One accelerator's share from the §4.3.1 ratio estimation,
			// scaled by the device count (capped so the CPU keeps a
			// working share).
			cfg.GPUShare = min(device.EstimateGPUShare(el, cpu, gpu)*float64(k), 0.9)
		}
	}
	rankGPUs := func(id int) []device.Device {
		if gpu == nil {
			return nil
		}
		g := gpu
		if s := machine.SpeedOf(id); s != 1 {
			g = &device.GPU{Model: gpu.Model.Scaled(s)}
		}
		out := make([]device.Device, k)
		for i := range out {
			out[i] = g
		}
		return out
	}

	var c *cluster.Cluster
	if ep == nil {
		c = cluster.New(p, machine.Comm)
	} else {
		c = cluster.NewDistributed(ep, machine.Comm)
	}
	first := c.LocalRanks()[0]
	var forest *mst.Forest
	var iterations, levels, peak int
	var lists *filterLists // nil unless the run filters
	if cfg.Filter && filterFires(el) {
		lists = &filterLists{}
	}
	rep, err := c.Run(ctx, func(r *cluster.Rank) error {
		rm := &rankMain{
			r:       r,
			rt:      hypar.New(r, rankCPU(r.ID()), rankGPUs(r.ID()), cfg),
			el:      el,
			cfg:     cfg,
			machine: machine,
			lists:   lists,
		}
		f, err := rm.run()
		if err != nil {
			return err
		}
		if err := rm.reduceStats(); err != nil {
			return err
		}
		if r.ID() == first {
			iterations, levels, peak = rm.iter, rm.lvls, rm.peak
		}
		if f != nil {
			forest = f
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// In a distributed run only rank 0 assembles the forest; the full
	// report (simulated + wall clocks of every rank) is gathered to it over
	// the still-open transport.
	if rep, err = c.GatherReport(rep); err != nil {
		return nil, err
	}
	if forest == nil && c.IsLocal(0) {
		return nil, fmt.Errorf("core: no rank produced the forest")
	}
	return &Result{Forest: forest, Report: rep, Iterations: iterations, Levels: levels, PeakEdges: peak}, nil
}

// rankMain carries one rank's state through Algorithm 1.
type rankMain struct {
	r   *cluster.Rank
	rt  *hypar.Runtime
	el  *graph.EdgeList
	cfg hypar.Config

	owned   []int32
	edges   []graph.Edge
	chosen  []int32
	iter    int
	lvls    int
	peak    int
	machine cost.Machine
	lists   *filterLists
}

// notePeak records the rank's resident edge count high-water mark.
func (m *rankMain) notePeak() {
	if len(m.edges) > m.peak {
		m.peak = len(m.edges)
	}
}

// reduceStats replaces the rank's iteration, level and peak counts with
// the global ones, identical on every rank. Result promises *global* run
// statistics: Iterations/Levels are the (identical-by-construction) global
// counts and PeakEdges is the per-rank maximum. A distributed process
// hosts only its own rank, so reduce the scalars across ranks — a
// zero-virtual-cost stat collective, keeping simulated reports
// bit-identical to runs without it — and assert the iteration/level
// agreement that the in-process mode gets for free (max == min, checked by
// reducing the negated values alongside).
func (m *rankMain) reduceStats() error {
	red := m.r.StatAllreduce([]int64{
		int64(m.iter), int64(m.lvls), int64(m.peak),
		int64(-m.iter), int64(-m.lvls),
	}, cluster.OpMax)
	if red[0] != -red[3] || red[1] != -red[4] {
		return fmt.Errorf("core: rank %d: global state divergence: iterations [%d,%d], levels [%d,%d] across ranks",
			m.r.ID(), -red[3], red[0], -red[4], red[1])
	}
	m.iter, m.lvls, m.peak = int(red[0]), int(red[1]), int(red[2])
	return nil
}

// run executes Algorithm 1 on the job's edge list and gathers the forest
// to rank 0, which returns it; every other rank returns nil. When the
// filter rule fires (Config.Filter and filterFires), m.lists is set and
// the run is runFiltered's instead.
func (m *rankMain) run() (*mst.Forest, error) {
	if m.lists != nil {
		return m.runFiltered()
	}
	if err := m.pass(m.el); err != nil {
		return nil, err
	}
	ids, err := m.gather()
	if err != nil || m.r.ID() != 0 {
		return nil, err
	}
	return mst.ForestOf(m.el, ids), nil
}

// pass runs Algorithm 1 from partitioning to post-processing on the
// edge list in, whose edges carry their packed job weights, and appends
// the forest edges it contracts on this rank to m.chosen. An unfiltered
// run is one pass over the job's edge list.
func (m *rankMain) pass(in *graph.EdgeList) error {
	r := m.r
	p := r.P()
	threshold := mergeThreshold(m.cfg, len(in.Edges), p)
	m.owned, m.edges = nil, nil

	// --- Partitioning (§3.1) ---
	r.SetPhase(PhasePartition)
	strat := partition.ByDegree
	if m.cfg.EqualVertexPartition {
		strat = partition.ByVertex
	}
	var speeds []float64
	if len(m.machine.NodeSpeeds) == p && !m.cfg.IgnoreNodeSpeeds {
		speeds = m.machine.NodeSpeeds
	}
	bounds, deg, w := partition.ReadBounds(r, in, strat, speeds)
	lo, hi := bounds[r.ID()], bounds[r.ID()+1]
	view := boruvka.NewWindow(in, deg, lo, hi)
	// The window stands in for the extracted edge list and the ghostList
	// hash table (one entry per cut edge) of §3.1; their work is charged
	// from its counts.
	w.EdgesScanned += view.NumEdges
	m.rt.ChargeWork(w)
	m.rt.ChargeWork(cost.Work{HashOps: view.NumCut, EdgesScanned: view.NumEdges})
	m.owned = view.IDs
	m.peak = max(m.peak, int(view.NumEdges))
	hasEdges := view.NumEdges > 0

	// --- Iterated indComp + mergeParts + hierarchical merging ---
	active := make([]int, p)
	for i := range active {
		active[i] = i
	}
	ringRounds := 0
	var prevSums []int64 // each group's edge total after this level's last ring round

	// A single-rank run still performs one indComp iteration (with its
	// per-node device split) before post-processing, matching the paper's
	// single-node executions (§3.5).
	for first := true; len(active) > 1 || (first && p == 1 && hasEdges); first = false {
		m.iter++
		amActive := containsInt(active, r.ID())

		// indComp (§3.2): independent Boruvka on the devices with the
		// border-vertex exception. Every iteration runs on one view: the
		// rank's window first, then the reduced component graph in
		// m.edges, built on active ranks only.
		r.SetPhase(PhaseIndComp)
		var parent []int32
		if amActive {
			if !first {
				var err error
				if view, err = boruvka.NewLocal(m.owned, m.edges); err != nil {
					return fmt.Errorf("core: rank %d: %w", r.ID(), err)
				}
			}
			parent = view.IDs
			recurse := first || m.cfg.RecursionMinEdges <= 0 ||
				len(m.edges) >= m.cfg.RecursionMinEdges // §4.3.3 threshold
			if len(m.owned) > 0 && recurse {
				res, err := m.rt.IndComp(view)
				if err != nil {
					return err
				}
				m.chosen = append(m.chosen, res.ChosenIDs...)
				parent = res.Parent
			}
		}

		// mergeParts (§3.3): ghost parent exchange, self- and multi-edge
		// removal.
		r.SetPhase(PhaseMerge)
		if amActive {
			// Only boundary components matter to other ranks: a peer holds
			// a copy of one of our edges only if it is a cut edge, and the
			// label it knows is the cut edge's owned endpoint. Sending
			// parent ids for exactly those (the vertices with a cut arc)
			// mirrors the ghost-vertex communication of §3.3.
			// A count pass sizes the list exactly.
			sends := func(i int) bool { return parent[i] != view.IDs[i] && view.Border(i) }
			n := 0
			for i := range parent {
				if sends(i) {
					n++
				}
			}
			sendDeltas := make([]merge.Delta, 0, n)
			for i, c := range parent {
				if sends(i) {
					sendDeltas = append(sendDeltas, merge.Delta{Old: view.IDs[i], New: c})
				}
			}
			remote, wEx, err := merge.ExchangeDeltas(r, active, sendDeltas, m.cfg.Chunk)
			if err != nil {
				return err
			}
			m.rt.ChargeWork(wEx)
			// Every owned vertex maps to its component through parent;
			// only ghost endpoints need the remote deltas. A vertex is its
			// component's representative iff it is its own parent.
			reps := 0
			for i, c := range parent {
				if c == view.IDs[i] {
					reps++
				}
			}
			m.owned = make([]int32, 0, reps)
			for i, c := range parent {
				if c == view.IDs[i] {
					m.owned = append(m.owned, c)
				}
			}
			// Ghosts resolve through a table over the view's ghost span;
			// a delta for an id outside it names no ghost of this view.
			ghosts := merge.NewParentTable(view.GhostLo, view.GhostHi)
			for _, d := range remote {
				ghosts.Set(d.Old, d.New)
			}
			// NewLocal copied m.edges into the view's arcs, so the
			// reduction reuses its storage.
			m.edges = m.rt.Reduce(m.edges, view, parent, ghosts.Of)
		}
		// The view dies with its iteration: no rank holds it across the
		// ring exchanges and leader merges below.
		view = nil

		// Group accounting: one global allreduce gives every rank each
		// group's residual edge total (Algorithm 1 line 6).
		groups := merge.FormGroups(active, m.cfg.GroupSize)
		if m.cfg.LeaderOnly {
			groups = [][]int{append([]int(nil), active...)}
		}
		vec := make([]int64, len(groups))
		if amActive {
			vec[groupIndex(groups, r.ID())] = int64(len(m.edges))
		}
		sums := r.Allreduce(vec, cluster.OpSum)

		// Decide per group: ring exchange or merge to leader (§4.3.4).
		toLeader := make([]bool, len(groups))
		for gi, grp := range groups {
			switch {
			case m.cfg.LeaderOnly:
				toLeader[gi] = true
			case len(grp) == 1:
				toLeader[gi] = true
			case sums[gi] <= threshold:
				toLeader[gi] = true
			case ringRounds >= m.cfg.MaxRingRounds:
				toLeader[gi] = true
			default:
				// Convergence: the last ring round failed to shrink the
				// group's data enough.
				if prevSums != nil && float64(sums[gi]) > float64(prevSums[gi])*(1-m.cfg.ConvergenceRatio) {
					toLeader[gi] = true
				}
			}
		}

		if amActive {
			grp := merge.GroupOf(groups, r.ID())
			gi := groupIndex(groups, r.ID())
			if toLeader[gi] {
				leader := merge.Leader(grp)
				if r.ID() != leader {
					merge.SendToLeader(r, leader, merge.Payload{Comps: m.owned, Edges: m.edges}, m.cfg.Chunk)
					m.owned, m.edges = nil, nil
				} else {
					pl, err := merge.RecvMembers(r, grp, merge.Payload{Comps: m.owned, Edges: m.edges})
					if err != nil {
						return err
					}
					m.owned, m.edges = pl.Comps, pl.Edges
					slices.Sort(m.owned)
					m.edges = merge.DedupeByID(m.edges)
					m.rt.ChargeWork(cost.Work{EdgesScanned: int64(len(m.edges))})
					m.notePeak()
				}
			} else {
				// Ring-based segment exchange (§3.4): one chunk-interleaved
				// ring step — the segment streams to the left neighbour
				// while the right neighbour's streams in, so the whole ring
				// progresses without any rank blocking in a send. The edge
				// list is split in place, and the arriving segment is
				// decoded into the room its sent-only edges leave, after
				// they are encoded; the next view does not depend on the
				// order of its edges.
				sendTo, recvFrom := merge.RingNeighbors(grp, r.ID())
				kept, sent := merge.SplitSegment(m.owned, len(grp))
				keptE, movedE := merge.SplitEdges(m.edges, kept, sent)
				pl, err := merge.ExchangeSegments(r, sendTo, recvFrom, merge.Payload{Comps: sent, Edges: movedE}, m.cfg.Chunk,
					merge.Payload{Comps: kept, Edges: keptE})
				if err != nil {
					return err
				}
				m.owned = pl.Comps
				slices.Sort(m.owned)
				m.edges = merge.DedupeByID(pl.Edges)
				m.rt.ChargeWork(cost.Work{EdgesScanned: int64(len(m.edges))})
				m.notePeak()
			}
		}

		// Advance the global state machine identically on every rank.
		anyLeaderMerge := false
		var newActive []int
		for gi, grp := range groups {
			if toLeader[gi] {
				newActive = append(newActive, merge.Leader(grp))
				anyLeaderMerge = true
			} else {
				newActive = append(newActive, grp...)
			}
		}
		sort.Ints(newActive)
		if anyLeaderMerge && len(newActive) < len(active) {
			m.lvls++
			ringRounds = 0
			prevSums = nil
		} else {
			// The active set, and so every group, stays the same.
			ringRounds++
			prevSums = sums
		}
		active = newActive
	}

	// --- Post processing (§4.1.4) on the final rank ---
	r.SetPhase(PhasePostProcess)
	final := active[0]
	if r.ID() == final && len(m.owned) > 0 {
		ids, err := m.rt.PostProcess(m.owned, m.edges)
		if err != nil {
			return err
		}
		m.chosen = append(m.chosen, ids...)
	}
	return nil
}

// mergeThreshold is the residual edge count at or below which a group of
// ranks merges to its leader: Config.MergeEdgeThreshold when it is set,
// otherwise the default memory-capacity threshold — one rank's original
// share of the m input edges, at least 256.
func mergeThreshold(cfg hypar.Config, m, p int) int64 {
	if cfg.MergeEdgeThreshold != 0 {
		return cfg.MergeEdgeThreshold
	}
	return max(int64(m)/int64(p), 256)
}

// gather collects every rank's chosen edge ids at rank 0 and returns
// them there; every other rank returns nil.
func (m *rankMain) gather() ([]int32, error) {
	r := m.r
	r.SetPhase(PhaseGather)
	if r.ID() != 0 {
		merge.SendForest(r, 0, m.chosen, m.cfg.Chunk)
		return nil, nil
	}
	all := append([]int32(nil), m.chosen...)
	for src := 1; src < r.P(); src++ {
		var err error
		if all, err = merge.RecvForest(r, src, all); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// groupIndex locates the group containing rank.
func groupIndex(groups [][]int, rank int) int {
	for gi, grp := range groups {
		for _, r := range grp {
			if r == rank {
				return gi
			}
		}
	}
	panic(fmt.Sprintf("core: rank %d in no group", rank))
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// VerifyAgainstKruskal checks a Result against the sequential ground truth
// and the full forest verifier; test helper shared by packages and cmds.
func VerifyAgainstKruskal(el *graph.EdgeList, res *Result) error {
	want := mst.Kruskal(el)
	if !want.Equal(res.Forest) {
		return fmt.Errorf("core: forest mismatch: weight %d vs %d, edges %d vs %d",
			res.Forest.TotalWeight, want.TotalWeight, len(res.Forest.EdgeIDs), len(want.EdgeIDs))
	}
	return mst.VerifyForest(el, res.Forest)
}
