// Package device provides the compute-device abstraction of the HyPar
// framework: a CPU device and a simulated GPU device that both execute the
// boruvka kernel on the host (the kernel really runs, on goroutines) while
// their cost models convert the kernel's work counters into simulated
// seconds. The package also implements the CPU:GPU performance-ratio
// estimation of §4.3.1 used to size the per-node device split.
package device

import (
	"math/rand"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// Device executes independent computations on a partition and prices them.
type Device interface {
	// Name identifies the device in reports.
	Name() string
	// Run executes the kernel on the local view and returns the result
	// together with the simulated execution time in seconds.
	Run(l *boruvka.Local, opt boruvka.Options) (*boruvka.Result, float64)
	// Price converts already-measured work into this device's simulated
	// seconds (used for pricing non-kernel graph operations such as the
	// merge-phase reductions).
	Price(w cost.Work) float64
}

// CPU is the multicore CPU device (Galois-style worklist execution, §3.5).
type CPU struct {
	Model cost.CPUModel
}

// Name implements Device.
func (c *CPU) Name() string { return c.Model.Name() }

// Run implements Device.
func (c *CPU) Run(l *boruvka.Local, opt boruvka.Options) (*boruvka.Result, float64) {
	res := boruvka.Run(l, opt)
	return res, c.Model.Seconds(res.Work)
}

// Price implements Device.
func (c *CPU) Price(w cost.Work) float64 { return c.Model.Seconds(w) }

// GPU is the simulated accelerator. Besides kernel time it charges the
// host↔device transfer of the partition, discounted by the
// compute/transfer overlap the paper implements with cudaStreams (§3.5).
type GPU struct {
	Model cost.GPUModel
	// OverlapTransfers enables the cudaStream overlap optimization; when
	// set, only a fraction of the transfer time is exposed.
	OverlapTransfers bool
}

// exposedTransferFraction is the fraction of transfer time left on the
// critical path when overlap is enabled.
const exposedTransferFraction = 0.3

// Name implements Device.
func (g *GPU) Name() string { return g.Model.Name() }

// transferSeconds prices moving the local view to the device.
func (g *GPU) transferSeconds(l *boruvka.Local) float64 {
	if g.Model.TransferBytesPerSec <= 0 {
		return 0
	}
	bytes := l.NumEdges*20 + int64(l.N())*4
	t := float64(bytes) / g.Model.TransferBytesPerSec
	if g.OverlapTransfers {
		t *= exposedTransferFraction
	}
	return t
}

// Run implements Device.
func (g *GPU) Run(l *boruvka.Local, opt boruvka.Options) (*boruvka.Result, float64) {
	res := boruvka.Run(l, opt)
	return res, g.Model.Seconds(res.Work) + g.transferSeconds(l)
}

// Price implements Device.
func (g *GPU) Price(w cost.Work) float64 { return g.Model.Seconds(w) }

// EstimateGPUShare implements the ratio strategy of §4.3.1: it draws
// `samples` random induced subgraphs of `fraction` of the vertices,
// prices each subgraph's full Boruvka run on both devices, and returns the
// average share of work the GPU should receive:
//
//	share = t_cpu / (t_cpu + t_gpu)
//
// so that both devices finish their proportional partitions together.
// Returns 0 when gpu is nil.
func EstimateGPUShare(g *graph.CSR, cpu, gpu Device, samples int, fraction float64, seed int64) float64 {
	if gpu == nil || g.N == 0 {
		return 0
	}
	if samples < 1 {
		samples = 5
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 0.05
	}
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	n := 0
	for s := 0; s < samples; s++ {
		sub := graph.SampleInducedSubgraph(g, fraction, rng)
		ids := make([]int32, sub.N)
		for i := range ids {
			ids[i] = int32(i)
		}
		l, err := boruvka.NewLocal(ids, toWire(sub))
		if err != nil {
			continue
		}
		res := boruvka.Run(l, boruvka.DefaultOptions())
		// Extrapolate the sample's work to full-graph volume before
		// pricing: the estimate predicts the split for the whole
		// partition, so bulk terms scale with edge count while the
		// per-iteration launch overhead grows only logarithmically
		// (approximated as unchanged).
		w := res.Work
		if len(sub.Edges) > 0 && g.M > 0 {
			f := float64(g.M) / float64(len(sub.Edges))
			w.EdgesScanned = int64(float64(w.EdgesScanned) * f)
			w.VerticesProcessed = int64(float64(w.VerticesProcessed) * f)
			w.AtomicOps = int64(float64(w.AtomicOps) * f)
			w.HashOps = int64(float64(w.HashOps) * f)
		}
		tCPU := cpu.Price(w)
		tGPU := gpu.Price(w)
		if tCPU+tGPU <= 0 {
			continue
		}
		sum += tCPU / (tCPU + tGPU)
		n++
	}
	if n == 0 {
		return 0
	}
	share := sum / float64(n)

	// Memory constraint (§4.3.1): cap the GPU's share so its partition —
	// roughly share × total edge bytes plus per-vertex state — fits the
	// device memory.
	if gm, ok := gpu.(*GPU); ok && gm.Model.MemoryBytes > 0 {
		graphBytes := g.M*20 + int64(g.N)*8
		if graphBytes > 0 {
			maxShare := float64(gm.Model.MemoryBytes) / float64(graphBytes)
			if share > maxShare {
				share = maxShare
			}
		}
	}
	return share
}

// toWire converts an edge list to wire form, preserving ids.
func toWire(el *graph.EdgeList) []wire.WEdge {
	out := make([]wire.WEdge, len(el.Edges))
	for i, e := range el.Edges {
		out[i] = wire.WEdge{U: e.U, V: e.V, W: e.W, ID: e.ID}
	}
	return out
}
