// Package hypar implements the HyPar programming and runtime framework of
// §4: the per-rank runtime that executes independent computations
// (indComp) on one or both devices of a node, merges the device results
// within the node (§3.5), prices merge-phase reductions, and realizes the
// runtime strategies — CPU:GPU ratio partitioning (§4.3.1),
// diminishing-benefit termination (§4.3.2), and the thresholds that govern
// recursion and hierarchical merging (§4.3.3, §4.3.4).
package hypar

import (
	"fmt"
	"slices"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/merge"
	"mndmst/internal/wire"
)

// Config carries the tunables of the framework. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// GroupSize is the hierarchical-merging group size (paper: 4).
	GroupSize int
	// MergeEdgeThreshold: when a group's edge total falls to or below this,
	// the group merges to its leader instead of exchanging segments
	// (Algorithm 1 line 7). Zero lets the driver derive a default from the
	// input size.
	MergeEdgeThreshold int64
	// ConvergenceRatio: if a ring-exchange round shrinks the group's data
	// by less than this fraction, exchanges stop and the group merges to
	// its leader (§4.3.4).
	ConvergenceRatio float64
	// MaxRingRounds caps ring exchanges per level (safety net).
	MaxRingRounds int
	// Chunk is the payload chunk size for multi-phase exchanges.
	Chunk int
	// Excpt is the exception condition passed to indComp.
	Excpt boruvka.ExceptionCond
	// DataDriven selects worklist kernels.
	DataDriven bool
	// Contract enables between-round graph contraction in the device
	// kernels (Sousa et al. [7]).
	Contract bool
	// DiminishingTermination enables the §4.3.2 early-stop strategy.
	DiminishingTermination bool
	// GPUShare is the fraction of per-node work given to the GPU
	// (0 = CPU only); set it from device.EstimateGPUShare.
	GPUShare float64
	// MinGPUEdges is the smallest partition worth shipping to the GPU —
	// below it, kernel-launch overhead wins and everything stays on the
	// CPU.
	MinGPUEdges int
	// GPUsPerNode is the number of accelerators per node when GPU use is
	// enabled (0 means 1).
	GPUsPerNode int
	// LeaderOnly disables hierarchical merging and ships every rank's
	// residual data straight to rank 0 after the first reduction — the
	// strawman §3.4 argues against. Used by the merging ablation.
	LeaderOnly bool
	// EqualVertexPartition selects the naive equal-vertex 1D split
	// instead of the Gemini-style degree-balanced one (ablation).
	EqualVertexPartition bool
	// IgnoreNodeSpeeds makes the partitioner speed-blind on heterogeneous
	// machines (devices still run at their true speeds) — the ablation
	// that shows why heterogeneity-aware partitioning matters.
	IgnoreNodeSpeeds bool
	// RecursionMinEdges is the §4.3.3 recursion threshold (the paper used
	// 100M edges at full scale): after the first iteration, a rank whose
	// reduced graph has fewer edges skips further independent
	// computations and proceeds directly with merging, leaving the rest
	// to postProcess. Zero always recurses.
	RecursionMinEdges int
}

// DefaultConfig returns the configuration the paper converges on.
func DefaultConfig() Config {
	return Config{
		GroupSize:              4,
		ConvergenceRatio:       0.10,
		MaxRingRounds:          3,
		Chunk:                  merge.DefaultChunk,
		Excpt:                  boruvka.ExcptBorderVertex,
		DataDriven:             true,
		DiminishingTermination: false,
		MinGPUEdges:            4096,
	}
}

// Runtime is the per-rank HyPar handle. A node always has one CPU device
// and zero or more accelerators; indComp splits the node's partition
// across all of them ("can simultaneously harness multiple devices").
type Runtime struct {
	R    *cluster.Rank
	CPU  device.Device
	GPUs []device.Device // empty on CPU-only platforms
	Cfg  Config
}

// New creates a runtime for the calling rank.
func New(r *cluster.Rank, cpu device.Device, gpus []device.Device, cfg Config) *Runtime {
	return &Runtime{R: r, CPU: cpu, GPUs: gpus, Cfg: cfg}
}

// IndResult is the outcome of one indComp invocation on a node.
type IndResult struct {
	// ChosenIDs are the MST edge ids contracted on this node.
	ChosenIDs []int32
	// Parent maps every owned component, by position in the owned list
	// (for a window, vertex lo+i at i), to its new representative.
	Parent []int32
	// Deltas map merged-away component ids to their new representatives.
	Deltas []merge.Delta
	// Components is the number of components owned after the computation.
	Components int
	// Seconds is the simulated node time (already charged to the rank).
	Seconds float64
}

// Window is a rank's first-iteration share of the job: View, the kernel
// view boruvka.NewWindow(el, deg, Lo, hi) of its vertex range [Lo, hi).
type Window struct {
	Lo   int32
	View *boruvka.Local
}

// kernelOpts builds per-device kernel options, each with its own
// terminator closure (the diminishing-benefit detector keeps per-device
// state).
func (rt *Runtime) kernelOpts(dev device.Device) boruvka.Options {
	opt := boruvka.Options{Excpt: rt.Cfg.Excpt, DataDriven: rt.Cfg.DataDriven, Contract: rt.Cfg.Contract}
	if rt.Cfg.DiminishingTermination {
		prev := -1.0
		opt.Terminator = func(round int, w cost.Work, merges int) bool {
			t := dev.Price(w)
			stop := prev >= 0 && t >= prev*0.98
			prev = t
			return stop
		}
	}
	return opt
}

// useGPU reports whether a node partition of numEdges edges is split
// across the accelerators.
func (rt *Runtime) useGPU(numEdges int64) bool {
	return len(rt.GPUs) > 0 && rt.Cfg.GPUShare > 0 && numEdges >= int64(rt.Cfg.MinGPUEdges)
}

// IndComp performs the independent computation of §4.1.2 on the node: the
// owned components and their incident edges are processed by the CPU alone
// or split across the CPU and every accelerator by the configured share,
// with the device results merged on the CPU afterwards (§3.5). Simulated
// time is charged to the rank. owned must be sorted ascending.
func (rt *Runtime) IndComp(owned []int32, edges []wire.WEdge) (*IndResult, error) {
	if !rt.useGPU(int64(len(edges))) {
		l, err := boruvka.NewLocal(owned, edges)
		if err != nil {
			return nil, fmt.Errorf("hypar: indComp: %w", err)
		}
		return rt.indCompCPU(l), nil
	}
	sets := splitByShares(owned, incidences(owned, edges), rt.shares())
	edgeSets := deviceEdgesMulti(edges, sets)
	view := func(i int) (*boruvka.Local, error) { return boruvka.NewLocal(sets[i], edgeSets[i]) }
	relabel := func(devParent []int32) ([]wire.WEdge, cost.Work) {
		pf := merge.ApplyDeltas(merge.DeltasFromParents(owned, devParent))
		nodeEdges, _, w := merge.Relabel(append([]wire.WEdge(nil), edges...), pf)
		return nodeEdges, w
	}
	return rt.indCompMulti(owned, sets, view, relabel)
}

// IndCompWindow is IndComp over the node's first-iteration window. A
// device split cuts the range into contiguous device ranges whose views
// are cut from the window (boruvka.Local.Sub), and the node merge
// relabels straight from the window's arcs.
func (rt *Runtime) IndCompWindow(win *Window) (*IndResult, error) {
	v := win.View
	if !rt.useGPU(v.NumEdges) {
		return rt.indCompCPU(v), nil
	}
	inc := make([]int64, v.N())
	for i := range inc {
		inc[i] = v.Degree(i)
	}
	sets := splitByShares(v.IDs, inc, rt.shares())
	// Device i's range starts where the sets before it end.
	starts := make([]int, len(sets))
	for i := 1; i < len(sets); i++ {
		starts[i] = starts[i-1] + len(sets[i-1])
	}
	view := func(i int) (*boruvka.Local, error) {
		return v.Sub(starts[i], starts[i]+len(sets[i])), nil
	}
	relabel := func(devParent []int32) ([]wire.WEdge, cost.Work) {
		identity := func(x int32) int32 { return x }
		return merge.RelabelWindow(v, devParent, identity), cost.Work{EdgesScanned: v.NumEdges}
	}
	return rt.indCompMulti(v.IDs, sets, view, relabel)
}

// indCompCPU runs the kernel on the CPU alone.
func (rt *Runtime) indCompCPU(l *boruvka.Local) *IndResult {
	res, secs := rt.CPU.Run(l, rt.kernelOpts(rt.CPU))
	rt.R.Compute(secs)
	return &IndResult{
		ChosenIDs:  res.ChosenIDs,
		Parent:     res.Parent,
		Deltas:     merge.DeltasFromParents(l.IDs, res.Parent),
		Components: res.Components,
		Seconds:    secs,
	}
}

// shares lists the per-device work shares, CPU first: the CPU keeps
// 1−GPUShare and the accelerators split GPUShare evenly.
func (rt *Runtime) shares() []float64 {
	shares := make([]float64, 0, 1+len(rt.GPUs))
	shares = append(shares, 1-rt.Cfg.GPUShare)
	per := rt.Cfg.GPUShare / float64(len(rt.GPUs))
	for range rt.GPUs {
		shares = append(shares, per)
	}
	return shares
}

// indCompMulti runs the device views of the split sets on the CPU and
// every accelerator concurrently (the paper dedicates a GPUdriverThread
// per accelerator; goroutines here), and merges the device results on the
// CPU. view builds device i's view of sets[i]; relabel returns the node's
// edges relabelled by the device parents (aligned with owned) with self
// edges dropped, plus the work of that scan.
func (rt *Runtime) indCompMulti(owned []int32, sets [][]int32,
	view func(i int) (*boruvka.Local, error),
	relabel func(devParent []int32) ([]wire.WEdge, cost.Work),
) (*IndResult, error) {
	devs := append([]device.Device{rt.CPU}, rt.GPUs...)
	type devOut struct {
		res  *boruvka.Result
		secs float64
		err  error
	}
	outs := make([]devOut, len(devs))
	run := func(i int) {
		l, err := view(i)
		if err != nil {
			outs[i] = devOut{err: err}
			return
		}
		res, secs := devs[i].Run(l, rt.kernelOpts(devs[i]))
		outs[i] = devOut{res: res, secs: secs}
	}
	ch := make(chan int, len(devs))
	for i := 1; i < len(devs); i++ {
		go func(i int) {
			run(i)
			ch <- i
		}(i)
	}
	run(0)
	for i := 1; i < len(devs); i++ {
		<-ch
	}
	// The sets are consecutive segments of owned, so the device parents
	// concatenate into one array aligned with owned.
	devParent := make([]int32, 0, len(owned))
	tInd := 0.0
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("hypar: device %d: %w", i, o.err)
		}
		if o.secs > tInd {
			tInd = o.secs
		}
		devParent = append(devParent, o.res.Parent...)
	}

	// Merge the device results on the CPU (§3.5): relabel the node's edges
	// with every device's parents, drop self and multi edges, then run the
	// merge kernel over the node's surviving components.
	nodeEdges, wRel := relabel(devParent)
	nodeEdges, wMul := merge.RemoveMultiEdges(nodeEdges)
	var wRed cost.Work
	wRed.Add(wRel)
	wRed.Add(wMul)
	tRed := rt.CPU.Price(wRed)

	var comps []int32
	for i, c := range owned {
		if devParent[i] == c {
			comps = append(comps, c)
		}
	}
	lm, err := boruvka.NewLocal(comps, nodeEdges)
	if err != nil {
		return nil, fmt.Errorf("hypar: node merge view: %w", err)
	}
	mres, msecs := rt.CPU.Run(lm, rt.kernelOpts(rt.CPU))
	total := tInd + tRed + msecs
	rt.R.Compute(total)

	// Compose the device parents with the node-merge parents.
	final := merge.ApplyDeltas(merge.DeltasFromParents(lm.IDs, mres.Parent))
	parent := make([]int32, len(owned))
	for i, d := range devParent {
		parent[i] = final(d)
	}

	var chosen []int32
	for _, o := range outs {
		chosen = append(chosen, o.res.ChosenIDs...)
	}
	chosen = append(chosen, mres.ChosenIDs...)
	slices.Sort(chosen)
	return &IndResult{
		ChosenIDs:  chosen,
		Parent:     parent,
		Deltas:     merge.DeltasFromParents(owned, parent),
		Components: mres.Components,
		Seconds:    total,
	}, nil
}

// Reduce prices and performs the merge-phase data reduction on the rank's
// CPU: relabeling through the parent function (self-edge removal) followed
// by multi-edge removal.
func (rt *Runtime) Reduce(edges []wire.WEdge, pf func(int32) int32) []wire.WEdge {
	out, _, wRel := merge.Relabel(edges, pf)
	return rt.removeMulti(out, wRel)
}

// ReduceWindow is Reduce for the first iteration: the relabelled edges
// come straight from the window's arcs (merge.RelabelWindow), with
// parent[i] the component of vertex Lo+i and ghost the parent function of
// the endpoints outside the window. The relabel scan is charged from the
// window's edge count.
func (rt *Runtime) ReduceWindow(win *Window, parent []int32, ghost func(int32) int32) []wire.WEdge {
	out := merge.RelabelWindow(win.View, parent, ghost)
	return rt.removeMulti(out, cost.Work{EdgesScanned: win.View.NumEdges})
}

// removeMulti finishes a reduction: multi-edge removal, then one charge
// for the relabel work wRel plus its own.
func (rt *Runtime) removeMulti(edges []wire.WEdge, wRel cost.Work) []wire.WEdge {
	out, wMul := merge.RemoveMultiEdges(edges)
	var w cost.Work
	w.Add(wRel)
	w.Add(wMul)
	rt.R.Compute(rt.CPU.Price(w))
	return out
}

// PostProcess runs the final kernel over the fully-gathered component
// graph (§4.1.4) on the node's fastest suitable device and returns the
// chosen edge ids.
func (rt *Runtime) PostProcess(owned []int32, edges []wire.WEdge) ([]int32, error) {
	l, err := boruvka.NewLocal(owned, edges)
	if err != nil {
		return nil, fmt.Errorf("hypar: postProcess: %w", err)
	}
	opt := boruvka.Options{Excpt: boruvka.ExcptNone, DataDriven: rt.Cfg.DataDriven}
	dev := rt.CPU
	if len(rt.GPUs) > 0 && len(edges) >= rt.Cfg.MinGPUEdges {
		dev = rt.GPUs[0]
	}
	res, secs := dev.Run(l, opt)
	rt.R.Compute(secs)
	return res.ChosenIDs, nil
}

// ChargeWork prices arbitrary CPU-side work (ghost-list construction,
// payload assembly) on the rank.
func (rt *Runtime) ChargeWork(w cost.Work) {
	rt.R.Compute(rt.CPU.Price(w))
}

// splitByShares divides the sorted owned list into len(shares) contiguous
// segments whose edge-incidence mass (inc, aligned with owned)
// approximates the given shares — the 1D device split of §3.1 generalized
// to any device count. Devices with a zero share get empty segments except
// that every returned slice set still partitions owned. Segments may be
// empty when owned is small.
func splitByShares(owned []int32, inc []int64, shares []float64) [][]int32 {
	k := len(shares)
	sets := make([][]int32, k)
	if len(owned) == 0 || k == 0 {
		return sets
	}
	if k == 1 {
		sets[0] = owned
		return sets
	}
	var total int64
	for _, c := range inc {
		total += c
	}
	var shareSum float64
	for _, s := range shares {
		shareSum += s
	}
	if shareSum <= 0 {
		sets[0] = owned
		return sets
	}
	var run int64
	var acc float64
	lo := 0
	for d := 0; d < k-1; d++ {
		acc += shares[d] / shareSum
		target := int64(acc * float64(total))
		hi := lo
		for hi < len(owned) && run < target {
			run += inc[hi]
			hi++
		}
		sets[d] = owned[lo:hi:hi]
		lo = hi
	}
	sets[k-1] = owned[lo:]
	return sets
}

// deviceEdgesMulti distributes the node's edges to the device views: every
// edge goes to each device owning one of its endpoints (cross-device edges
// appear in each involved device, as cut edges).
func deviceEdgesMulti(edges []wire.WEdge, sets [][]int32) [][]wire.WEdge {
	ownerOf := make(map[int32]int, 0)
	for d, set := range sets {
		for _, c := range set {
			ownerOf[c] = d
		}
	}
	out := make([][]wire.WEdge, len(sets))
	for _, e := range edges {
		du, okU := ownerOf[e.U]
		dv, okV := ownerOf[e.V]
		if okU {
			out[du] = append(out[du], e)
		}
		if okV && (!okU || dv != du) {
			out[dv] = append(out[dv], e)
		}
	}
	return out
}

// incidences counts, per owned component, the view arcs out of it: its
// edges, a self-loop once.
func incidences(owned []int32, edges []wire.WEdge) []int64 {
	idx := make(map[int32]int, len(owned))
	for i, c := range owned {
		idx[c] = i
	}
	inc := make([]int64, len(owned))
	for _, e := range edges {
		if i, ok := idx[e.U]; ok {
			inc[i]++
		}
		if i, ok := idx[e.V]; ok && e.V != e.U {
			inc[i]++
		}
	}
	return inc
}
