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
)

// Device executes independent computations on a partition and prices them.
type Device interface {
	// Name identifies the device in reports.
	Name() string
	// Run executes the kernel in place on local vertices [a, b) of the
	// view (boruvka.RunRange) and returns the result together with the
	// simulated execution time in seconds.
	Run(l *boruvka.Local, a, b int, opt boruvka.Options) (*boruvka.Result, float64)
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
func (c *CPU) Run(l *boruvka.Local, a, b int, opt boruvka.Options) (*boruvka.Result, float64) {
	res := boruvka.RunRange(l, a, b, opt)
	return res, c.Model.Seconds(res.Work)
}

// Price implements Device.
func (c *CPU) Price(w cost.Work) float64 { return c.Model.Seconds(w) }

// GPU is the simulated accelerator. Besides kernel time it charges the
// host↔device transfer of the partition, discounted by the
// compute/transfer overlap the paper implements with cudaStreams (§3.5).
type GPU struct {
	Model cost.GPUModel
}

// exposedTransferFraction is the fraction of transfer time the cudaStream
// overlap leaves on the critical path.
const exposedTransferFraction = 0.3

// Name implements Device.
func (g *GPU) Name() string { return g.Model.Name() }

// transferSeconds prices moving local vertices [a, b) of the view and
// their edges to the device.
func (g *GPU) transferSeconds(l *boruvka.Local, a, b int) float64 {
	if g.Model.TransferBytesPerSec <= 0 {
		return 0
	}
	bytes := l.RangeEdges(a, b)*20 + int64(b-a)*4
	return float64(bytes) / g.Model.TransferBytesPerSec * exposedTransferFraction
}

// Run implements Device.
func (g *GPU) Run(l *boruvka.Local, a, b int, opt boruvka.Options) (*boruvka.Result, float64) {
	res := boruvka.RunRange(l, a, b, opt)
	return res, g.Model.Seconds(res.Work) + g.transferSeconds(l, a, b)
}

// Price implements Device.
func (g *GPU) Price(w cost.Work) float64 { return g.Model.Seconds(w) }

// Parameters of the §4.3.1 ratio estimation: the number of sampled
// subgraphs, the fraction of vertices each one induces on, and the seed
// of the vertex draws.
const (
	estimateSamples  = 5
	estimateFraction = 0.05
	estimateSeed     = 12345
)

// EstimateGPUShare implements the ratio strategy of §4.3.1: it draws
// estimateSamples random induced subgraphs of estimateFraction of the
// vertices, prices each subgraph's full Boruvka run on both devices, and
// returns the average share of work the GPU should receive:
//
//	share = t_cpu / (t_cpu + t_gpu)
//
// so that both devices finish their proportional partitions together,
// capped so the GPU's partition fits its memory.
func EstimateGPUShare(el *graph.EdgeList, cpu *CPU, gpu *GPU) float64 {
	if el.N == 0 {
		return 0
	}
	m := int64(len(el.Edges))
	rng := rand.New(rand.NewSource(estimateSeed))
	var sum float64
	n := 0
	for s := 0; s < estimateSamples; s++ {
		ids, edges := sampleInduced(el, rng)
		l, err := boruvka.NewLocal(ids, edges)
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
		if len(edges) > 0 {
			f := float64(m) / float64(len(edges))
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
	if gpu.Model.MemoryBytes > 0 {
		graphBytes := m*20 + int64(el.N)*8
		share = min(share, float64(gpu.Model.MemoryBytes)/float64(graphBytes))
	}
	return share
}

// sampleInduced draws a uniform random sample of k = max(1,
// ⌊estimateFraction·N⌋) vertices and returns the subgraph they induce,
// renumbered by draw position: ids are 0..k−1 and every edge with both
// ends sampled appears once, as {U: min, V: max} of its ends' positions.
// Edges are ordered by their smaller position, then by edge id: the order
// in which a walk of the sampled vertices' CSR arcs (ascending edge id)
// would first meet them. Each keeps its packed weight, and so its id in el.
func sampleInduced(el *graph.EdgeList, rng *rand.Rand) ([]int32, []graph.Edge) {
	k := max(1, int(float64(el.N)*estimateFraction))
	perm := rng.Perm(int(el.N))
	pos := make([]int32, el.N)
	for i := range pos {
		pos[i] = -1
	}
	ids := make([]int32, k)
	for i, v := range perm[:k] {
		pos[v] = int32(i)
		ids[i] = int32(i)
	}
	// Counting sort by smaller position, stable in edge order: count,
	// prefix-sum into start offsets, then scatter.
	start := make([]int32, k+1)
	for _, e := range el.Edges {
		if pu, pv := pos[e.U], pos[e.V]; pu >= 0 && pv >= 0 {
			start[min(pu, pv)+1]++
		}
	}
	for i := 1; i <= k; i++ {
		start[i] += start[i-1]
	}
	edges := make([]graph.Edge, start[k])
	for _, e := range el.Edges {
		pu, pv := pos[e.U], pos[e.V]
		if pu < 0 || pv < 0 {
			continue
		}
		lo := min(pu, pv)
		edges[start[lo]] = graph.Edge{U: lo, V: max(pu, pv), W: e.W}
		start[lo]++
	}
	return ids, edges
}
