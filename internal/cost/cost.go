// Package cost defines the deterministic performance models that replace
// wall-clock measurement on hardware we cannot reproduce (an MPI cluster
// with NVIDIA K40 GPUs). Kernels report abstract work counters; device
// models convert counters into simulated seconds, and the communication
// model converts message sizes into simulated transfer times. All
// experiment output in this repository is expressed in these simulated
// seconds, which makes runs deterministic and hardware-independent while
// preserving the relative behaviour the paper measures (see DESIGN.md §2).
package cost

import "fmt"

// Work aggregates the abstract operations a kernel performed. The counters
// are chosen to capture everything the paper's performance discussion turns
// on: edge scans dominate Boruvka, iterations capture kernel-launch
// overhead on GPUs, atomic operations capture the contention the paper's
// batching optimization targets, and degree skew captures the
// load-imbalance the hierarchical adjacency strategy fixes.
type Work struct {
	EdgesScanned      int64
	VerticesProcessed int64
	Iterations        int64
	AtomicOps         int64
	HashOps           int64
	// DegreeSkew is max degree / average degree of the processed
	// partition; 1 for perfectly regular work, large for power-law graphs.
	DegreeSkew float64
}

// Add accumulates other into w, keeping the maximum skew.
func (w *Work) Add(other Work) {
	w.EdgesScanned += other.EdgesScanned
	w.VerticesProcessed += other.VerticesProcessed
	w.Iterations += other.Iterations
	w.AtomicOps += other.AtomicOps
	w.HashOps += other.HashOps
	if other.DegreeSkew > w.DegreeSkew {
		w.DegreeSkew = other.DegreeSkew
	}
}

// CPUModel models a multi-core CPU socket running the Galois-style
// worklist kernels with OpenMP-like threading.
type CPUModel struct {
	Cores int
	// EdgeCost is seconds per edge scan on one core.
	EdgeCost float64
	// VertexCost is seconds per processed vertex on one core.
	VertexCost float64
	// AtomicCost is seconds per atomic RMW (contention included).
	AtomicCost float64
	// HashCost is seconds per hash-table operation.
	HashCost float64
	// Efficiency is the parallel efficiency in (0, 1]: observed speedup is
	// Cores × Efficiency.
	Efficiency float64
}

// Seconds returns the simulated execution time of w on the device.
func (m CPUModel) Seconds(w Work) float64 {
	serial := float64(w.EdgesScanned)*m.EdgeCost +
		float64(w.VerticesProcessed)*m.VertexCost +
		float64(w.AtomicOps)*m.AtomicCost +
		float64(w.HashOps)*m.HashCost
	eff := m.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	cores := m.Cores
	if cores < 1 {
		cores = 1
	}
	return serial / (float64(cores) * eff)
}

// Name identifies the device in reports.
func (m CPUModel) Name() string { return fmt.Sprintf("cpu-%dc", m.Cores) }

// Scaled returns a copy of the model with throughput multiplied by f
// (f > 1 = faster node). Used for heterogeneous-cluster extensions.
func (m CPUModel) Scaled(f float64) CPUModel {
	if f <= 0 {
		f = 1
	}
	m.EdgeCost /= f
	m.VertexCost /= f
	m.AtomicCost /= f
	m.HashCost /= f
	return m
}

// GPUModel models a throughput-oriented accelerator. Two of the paper's
// kernel optimizations are expressed as switches:
//
//   - HierarchicalAdjacency (§3.5 "Hierarchical Strategy for Processing
//     Adjacency List"): when off, one thread explores a whole adjacency
//     list, so power-law skew serializes work and the effective edge
//     throughput degrades by the skew penalty; when on, the penalty is
//     mostly removed.
//   - AtomicBatching (§3.5 "Reducing Global Atomic Collisions"): when off,
//     every atomic op pays full cost; when on, batching amortizes them.
type GPUModel struct {
	// LaunchOverhead is seconds per kernel launch (charged per iteration).
	LaunchOverhead float64
	// EdgeThroughput is edge scans per second at full occupancy.
	EdgeThroughput float64
	// VertexThroughput is vertex ops per second.
	VertexThroughput float64
	// AtomicCost is seconds per global atomic when unbatched.
	AtomicCost float64
	// TransferBytesPerSec models host↔device copies; 0 disables the term.
	TransferBytesPerSec float64
	// MemoryBytes is the device memory capacity; 0 means unconstrained.
	// The ratio strategy of §4.3.1 caps the GPU partition so it fits
	// ("in addition to performance, we also take into account the GPU
	// memory requirements").
	MemoryBytes int64

	HierarchicalAdjacency bool
	AtomicBatching        bool
}

// skewPenalty maps degree skew to a slowdown factor for flat (one thread
// per vertex) adjacency processing. Grows sub-linearly: a skew of 1 is
// free, a skew of 1000 costs ~7.9x.
func skewPenalty(skew float64) float64 {
	if skew <= 1 {
		return 1
	}
	p := 1.0
	for s := skew; s > 1; s /= 4 {
		p += 0.45
	}
	return p
}

// Seconds returns the simulated execution time of w on the device.
func (m GPUModel) Seconds(w Work) float64 {
	t := float64(w.Iterations) * m.LaunchOverhead
	edgeTP := m.EdgeThroughput
	if edgeTP <= 0 {
		edgeTP = 1
	}
	penalty := 1.0
	if !m.HierarchicalAdjacency {
		penalty = skewPenalty(w.DegreeSkew)
	}
	t += float64(w.EdgesScanned) * penalty / edgeTP
	vtp := m.VertexThroughput
	if vtp <= 0 {
		vtp = edgeTP
	}
	t += float64(w.VerticesProcessed) / vtp
	atomics := float64(w.AtomicOps)
	if m.AtomicBatching {
		atomics /= 16 // warp-level aggregation batches ~16 ops into one
	}
	t += atomics * m.AtomicCost
	return t
}

// Name identifies the device in reports.
func (m GPUModel) Name() string { return "gpu" }

// Scaled returns a copy of the model with throughput multiplied by f.
func (m GPUModel) Scaled(f float64) GPUModel {
	if f <= 0 {
		f = 1
	}
	m.EdgeThroughput *= f
	m.VertexThroughput *= f
	m.AtomicCost /= f
	return m
}

// CommModel is the α–β model for point-to-point transfers: a message of n
// bytes costs Latency + n/Bandwidth seconds.
type CommModel struct {
	// Latency is the per-message fixed cost in seconds (α).
	Latency float64
	// Bandwidth is bytes per second (1/β).
	Bandwidth float64
}

// Seconds returns the transfer time of an n-byte message.
func (c CommModel) Seconds(n int64) float64 {
	bw := c.Bandwidth
	if bw <= 0 {
		bw = 1
	}
	return c.Latency + float64(n)/bw
}

// AllreduceSeconds models a Rabenseifner-style allreduce of n bytes across
// p ranks: 2·log2(p) latency terms plus 2·(p-1)/p of the data over the
// wire.
func (c CommModel) AllreduceSeconds(n int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	bw := c.Bandwidth
	if bw <= 0 {
		bw = 1
	}
	return 2*log2ceil(p)*c.Latency + 2*float64(p-1)/float64(p)*float64(n)/bw
}

// BarrierSeconds models a dissemination barrier across p ranks.
func (c CommModel) BarrierSeconds(p int) float64 {
	if p <= 1 {
		return 0
	}
	return log2ceil(p) * c.Latency
}

func log2ceil(p int) float64 {
	l := 0
	for 1<<l < p {
		l++
	}
	return float64(l)
}
