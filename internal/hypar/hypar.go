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

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/graph"
	"mndmst/internal/merge"
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
	// (0 = CPU only). When GPU use is enabled, core.Run replaces a 0 with
	// the §4.3.1 estimate, device.EstimateGPUShare on the job's edge list.
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
	// Filter enables filter-Borůvka (Sanders & Schimek 2023), an
	// extension beyond the paper: on a graph with m ≥ 5n edges the run
	// solves the edges at or below a sampled pivot weight first, then
	// runs the pipeline again over the heavier edges that join two
	// different light components (core.Run). DefaultConfig leaves it off,
	// so the paper suite runs the paper's pipeline; the public API turns
	// it on.
	Filter bool
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
	// Parent maps every vertex of the view, by position (v.IDs[i] at i),
	// to its new representative.
	Parent []int32
	// Components is the number of components owned after the computation.
	Components int
	// Seconds is the simulated node time (already charged to the rank).
	Seconds float64
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

// IndComp performs the independent computation of §4.1.2 on the node's
// view v (a first-iteration window, or the component graph of a later
// iteration): the CPU alone processes it, or it is split across the CPU
// and every accelerator by the configured share, with the device results
// merged on the CPU afterwards (§3.5). Simulated time is charged to the
// rank.
func (rt *Runtime) IndComp(v *boruvka.Local) (*IndResult, error) {
	if !rt.useGPU(v.NumEdges) {
		return rt.indCompCPU(v), nil
	}
	return rt.indCompMulti(v)
}

// indCompCPU runs the kernel on the CPU alone.
func (rt *Runtime) indCompCPU(l *boruvka.Local) *IndResult {
	res, secs := rt.CPU.Run(l, 0, l.N(), rt.kernelOpts(rt.CPU))
	rt.R.Compute(secs)
	return &IndResult{
		ChosenIDs:  res.ChosenIDs,
		Parent:     res.Parent,
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

// indCompMulti splits v into contiguous device ranges by the shares, runs
// the CPU and every accelerator concurrently, each in place on its own
// range of v (boruvka.RunRange; the paper dedicates a GPUdriverThread per
// accelerator, goroutines here), and merges the device results on the
// CPU. Each run retires the arcs internal to its own components.
func (rt *Runtime) indCompMulti(v *boruvka.Local) (*IndResult, error) {
	b := splitByShares(v, rt.shares())
	devs := append([]device.Device{rt.CPU}, rt.GPUs...)
	type devOut struct {
		res  *boruvka.Result
		secs float64
	}
	outs := make([]devOut, len(devs))
	run := func(i int) {
		res, secs := devs[i].Run(v, b[i], b[i+1], rt.kernelOpts(devs[i]))
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
	// The device ranges are consecutive, so the device parents concatenate
	// into one array aligned with v.IDs.
	devParent := make([]int32, 0, v.N())
	tInd := 0.0
	for _, o := range outs {
		if o.secs > tInd {
			tInd = o.secs
		}
		devParent = append(devParent, o.res.Parent...)
	}

	// Merge the device results on the CPU (§3.5): relabel the node's edges
	// with every device's parents straight from v's live arcs, dropping
	// self and multi edges as it goes (a hub or a Terminator stop leaves
	// some internal arcs live), then run the merge kernel over the node's
	// surviving components.
	identity := func(x int32) int32 { return x }
	nodeEdges, wMul := merge.Relabel(nil, v, devParent, identity)
	wRed := cost.Work{EdgesScanned: v.NumEdges}
	wRed.Add(wMul)
	tRed := rt.CPU.Price(wRed)

	var comps []int32
	for i, c := range v.IDs {
		if devParent[i] == c {
			comps = append(comps, c)
		}
	}
	lm, err := boruvka.NewLocal(comps, nodeEdges)
	if err != nil {
		return nil, fmt.Errorf("hypar: node merge view: %w", err)
	}
	mres, msecs := rt.CPU.Run(lm, 0, lm.N(), rt.kernelOpts(rt.CPU))
	total := tInd + tRed + msecs
	rt.R.Compute(total)

	// Compose the device parents with the node-merge parents through a
	// table over v's id span: every device parent is a component in
	// lm.IDs, a subset of v.IDs.
	var final merge.ParentTable
	if n := v.N(); n > 0 {
		final = merge.NewParentTable(v.IDs[0], v.IDs[n-1])
	}
	for j, c := range lm.IDs {
		final.Set(c, mres.Parent[j])
	}
	parent := make([]int32, v.N())
	for i, d := range devParent {
		parent[i] = final.Of(d)
	}

	var chosen []int32
	for _, o := range outs {
		chosen = append(chosen, o.res.ChosenIDs...)
	}
	chosen = append(chosen, mres.ChosenIDs...)
	graph.SortEdgeIDs(chosen)
	return &IndResult{
		ChosenIDs:  chosen,
		Parent:     parent,
		Components: mres.Components,
		Seconds:    total,
	}, nil
}

// Reduce prices and performs the merge-phase data reduction on the rank's
// CPU: the edges of the view v relabelled through parent (the component of
// v's vertex i at i) and ghost (the parent function of the external
// endpoints), with self edges dropped and only the lightest edge of each
// component pair kept, in one walk (merge.Relabel). The result is built in
// dst's storage; the relabel scan is charged from v's edge count.
func (rt *Runtime) Reduce(dst []graph.Edge, v *boruvka.Local, parent []int32, ghost func(int32) int32) []graph.Edge {
	out, w := merge.Relabel(dst, v, parent, ghost)
	w.Add(cost.Work{EdgesScanned: v.NumEdges})
	rt.R.Compute(rt.CPU.Price(w))
	return out
}

// PostProcess runs the final kernel over the fully-gathered component
// graph (§4.1.4) on the node's fastest suitable device and returns the
// chosen edge ids.
func (rt *Runtime) PostProcess(owned []int32, edges []graph.Edge) ([]int32, error) {
	l, err := boruvka.NewLocal(owned, edges)
	if err != nil {
		return nil, fmt.Errorf("hypar: postProcess: %w", err)
	}
	opt := boruvka.Options{Excpt: boruvka.ExcptNone, DataDriven: rt.Cfg.DataDriven}
	dev := rt.CPU
	if len(rt.GPUs) > 0 && len(edges) >= rt.Cfg.MinGPUEdges {
		dev = rt.GPUs[0]
	}
	res, secs := dev.Run(l, 0, l.N(), opt)
	rt.R.Compute(secs)
	return res.ChosenIDs, nil
}

// ChargeWork prices arbitrary CPU-side work (ghost-list construction,
// payload assembly) on the rank.
func (rt *Runtime) ChargeWork(w cost.Work) {
	rt.R.Compute(rt.CPU.Price(w))
}

// splitByShares cuts the view v into len(shares) contiguous ranges of
// local vertices whose arc counts approximate the given shares — the 1D
// device split of §3.1 generalized to any device count. Device d gets the
// vertices [b[d], b[d+1]) of the returned bounds b. With no positive share
// every vertex goes to device 0; ranges may be empty when v is small.
func splitByShares(v *boruvka.Local, shares []float64) []int {
	n := v.N()
	b := make([]int, len(shares)+1)
	var shareSum float64
	for _, s := range shares {
		shareSum += s
	}
	total := v.NumArcs()
	var run int64
	var acc float64
	hi := 0
	for d := 1; d < len(shares); d++ {
		if shareSum <= 0 {
			hi = n
		} else {
			acc += shares[d-1] / shareSum
			for target := int64(acc * float64(total)); hi < n && run < target; hi++ {
				run += v.Degree(hi)
			}
		}
		b[d] = hi
	}
	b[len(shares)] = n
	return b
}
