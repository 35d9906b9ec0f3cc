package device

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/mst"
	"mndmst/internal/testutil"
)

func cpuDev() *CPU { m := cost.CrayXC40(); return &CPU{Model: m.CPU} }
func gpuDev() *GPU { return &GPU{Model: cost.K40()} }

func fullLocal(t *testing.T, el *graph.EdgeList) *boruvka.Local {
	t.Helper()
	l, err := boruvka.NewLocal(seq(int(el.N)), el.Edges)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCPUAndGPUProduceSameForest(t *testing.T) {
	el := gen.RMAT(512, 4096, 61)
	want := mst.Kruskal(el)
	for _, d := range []Device{cpuDev(), gpuDev()} {
		l := fullLocal(t, el)
		res, secs := d.Run(l, 0, l.N(), boruvka.DefaultOptions())
		got := &mst.Forest{EdgeIDs: res.ChosenIDs, TotalWeight: res.ChosenWeight, Components: res.Components}
		if !want.Equal(got) {
			t.Fatalf("%s: wrong forest", d.Name())
		}
		if secs <= 0 {
			t.Fatalf("%s: non-positive time %g", d.Name(), secs)
		}
	}
}

// TestGPUChargesTransfers pins the GPU's charge for a run on local
// vertices [a, b): the kernel plus the exposed fraction of moving the
// range (20 bytes an edge with an endpoint in it, 4 a vertex) over the
// transfer bandwidth, and nothing extra when the bandwidth is 0. It
// covers the whole view, whose range edges are all its edges, and a
// proper sub-range.
func TestGPUChargesTransfers(t *testing.T) {
	el := gen.RMAT(512, 8192, 63)
	n := int(el.N)
	for _, r := range [][2]int{{0, n}, {n / 5, n - n/3}} {
		a, b := r[0], r[1]
		l := fullLocal(t, el)
		res := boruvka.RunRange(l, a, b, boruvka.DefaultOptions())
		edges := l.RangeEdges(a, b)
		if a == 0 && b == n && edges != l.NumEdges {
			t.Fatalf("RangeEdges(0, N) = %d, want NumEdges %d", edges, l.NumEdges)
		}

		gpu := gpuDev()
		_, got := gpu.Run(fullLocal(t, el), a, b, boruvka.DefaultOptions())
		bytes := float64(20*edges + 4*int64(b-a))
		if want := gpu.Price(res.Work) + bytes/gpu.Model.TransferBytesPerSec*0.3; got != want {
			t.Fatalf("[%d, %d): charge %g, want kernel + 0.3·transfer = %g", a, b, got, want)
		}

		// Disabled transfer model charges nothing extra.
		m := cost.K40()
		m.TransferBytesPerSec = 0
		free := &GPU{Model: m}
		_, tFree := free.Run(fullLocal(t, el), a, b, boruvka.DefaultOptions())
		if tFree != free.Price(res.Work) {
			t.Fatalf("[%d, %d): transfer charged despite disabled model", a, b)
		}
	}
}

func TestEstimateGPUShareInRange(t *testing.T) {
	el := gen.RMAT(2048, 16384, 65)
	share := EstimateGPUShare(el, cpuDev(), gpuDev())
	if share <= 0 || share >= 1 {
		t.Fatalf("share=%f", share)
	}
	// The K40 model runs at a fraction of the socket's throughput, so it
	// gets the smaller share (paper's ≤23% total gains).
	if share < 0.15 || share > 0.5 {
		t.Fatalf("share=%f outside plausible band", share)
	}
}

func TestEstimateGPUShareDeterministicPerSeed(t *testing.T) {
	el := gen.RMAT(1024, 8192, 69)
	a := EstimateGPUShare(el, cpuDev(), gpuDev())
	b := EstimateGPUShare(el, cpuDev(), gpuDev())
	if a != b {
		t.Fatalf("same seed, different shares: %f vs %f", a, b)
	}
}

func TestEstimateGPUShareDegenerateArgs(t *testing.T) {
	if got := EstimateGPUShare(&graph.EdgeList{N: 0}, cpuDev(), gpuDev()); got != 0 {
		t.Fatalf("empty graph share=%f", got)
	}
}

func TestEstimateGPUShareMemoryCap(t *testing.T) {
	el := gen.RMAT(2048, 16384, 73)
	unconstrained := EstimateGPUShare(el, cpuDev(), gpuDev())

	tiny := cost.K40()
	tiny.MemoryBytes = 1024 // absurdly small device memory
	capped := EstimateGPUShare(el, cpuDev(), &GPU{Model: tiny})
	if capped >= unconstrained {
		t.Fatalf("memory cap did not reduce the share: %f vs %f", capped, unconstrained)
	}
	maxShare := 1024.0 / float64(int64(len(el.Edges))*20+int64(el.N)*8)
	if capped > maxShare+1e-12 {
		t.Fatalf("share %f exceeds memory bound %f", capped, maxShare)
	}
}

// TestEstimateGPUShareGolden pins the estimate's exact bits, the ones it
// gave when each sample was cut from a whole-graph CSR: on an RMAT graph,
// on a web graph with added parallel edges and self-loops, and on a graph
// whose upper three quarters of vertices are isolated, without and with a
// device memory small enough that the cap binds.
func TestEstimateGPUShareGolden(t *testing.T) {
	// The web graph's packed weights take only 8 values (no embedded
	// edge id), so most weights tie and the kernel breaks the ties by arc
	// position in each sample's view: the estimate then depends on the
	// sample's edge order, not only on its edge set.
	web := gen.WebGraph(4096, 40000, 0.85, 3)
	n := len(web.Edges)
	for i := 0; i < n; i += 5 { // a reversed parallel copy of every 5th edge
		e := web.Edges[i]
		web.Edges = append(web.Edges, graph.Edge{U: e.V, V: e.U})
	}
	for v := int32(0); v < web.N; v += 3 { // a self-loop on every 3rd vertex
		web.Edges = append(web.Edges, graph.Edge{U: v, V: v})
	}
	for i := range web.Edges {
		web.Edges[i].W = graph.MakeWeight(uint16(i*7%8), 0)
	}
	iso := gen.RMAT(1024, 8192, 75)
	iso.N = 4096
	small := cost.K40()
	small.MemoryBytes = 40 << 10
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
		gpu  *GPU
		bits uint64
	}{
		{"rmat", gen.RMAT(2048, 16384, 65), gpuDev(), 0x3fd35879932f18bd},
		{"web", web, gpuDev(), 0x3fd3bc747dbc93f3},
		{"isolated", iso, gpuDev(), 0x3fd2121e50099385},
		{"isolated-capped", iso, &GPU{Model: small}, 0x3fcaaaaaaaaaaaab},
	} {
		if got := EstimateGPUShare(tc.el, cpuDev(), tc.gpu); math.Float64bits(got) != tc.bits {
			t.Errorf("%s: share %v (bits %#x), want %v (bits %#x)", tc.name, got, math.Float64bits(got), math.Float64frombits(tc.bits), tc.bits)
		}
	}
}

// TestSampleInducedProperty: a sample holds exactly the edges with both
// ends among the drawn vertices, once each, relabelled by draw position
// with U ≤ V, in order of the smaller position and then of edge id, each
// with its packed weight — on random graphs with self-loops, parallel
// edges and isolated vertices.
func TestSampleInducedProperty(t *testing.T) {
	rng := testutil.Rand(t, 77)
	for iter := 0; iter < 300; iter++ {
		n := int32(1 + rng.Intn(200))
		el := &graph.EdgeList{N: n}
		span := 1 + rng.Int31n(n) // vertices at or above span stay isolated
		for i := rng.Intn(1000); i > 0; i-- {
			u, v := rng.Int31n(span), rng.Int31n(span)
			if rng.Intn(10) == 0 {
				v = u
			}
			id := int32(len(el.Edges))
			el.Edges = append(el.Edges, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(rng.Intn(8)), id)})
			if rng.Intn(8) == 0 { // a parallel edge
				el.Edges = append(el.Edges, graph.Edge{U: v, V: u, W: graph.MakeWeight(uint16(rng.Intn(8)), id+1)})
			}
		}
		seed := rng.Int63()
		ids, got := sampleInduced(el, rand.New(rand.NewSource(seed)))

		k := max(1, int(float64(n)*estimateFraction))
		pos := make(map[int32]int32, k)
		for i, v := range rand.New(rand.NewSource(seed)).Perm(int(n))[:k] {
			pos[int32(v)] = int32(i)
		}
		var want []graph.Edge
		for _, e := range el.Edges {
			pu, okU := pos[e.U]
			pv, okV := pos[e.V]
			if okU && okV {
				want = append(want, graph.Edge{U: min(pu, pv), V: max(pu, pv), W: e.W})
			}
		}
		slices.SortStableFunc(want, func(a, b graph.Edge) int { return cmp.Compare(a.U, b.U) })
		if len(ids) != k || !slices.Equal(ids, seq(k)) {
			t.Fatalf("n=%d: ids %v, want 0..%d", n, ids, k-1)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d m=%d seed %d: sample\n%v\nwant\n%v", n, len(el.Edges), seed, got, want)
		}
	}
}

func seq(k int) []int32 {
	out := make([]int32, k)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
