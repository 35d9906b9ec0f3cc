package hypar

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/device"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/mst"
)

func onRank(t *testing.T, fn func(rt *Runtime) error) *cluster.Report {
	t.Helper()
	machine := cost.CrayXC40()
	c := cluster.New(1, machine.Comm)
	cfg := DefaultConfig()
	cfg.GPUShare = 0.5
	cfg.MinGPUEdges = 64
	rep, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		cpu := &device.CPU{Model: machine.CPU}
		gpu := &device.GPU{Model: *machine.GPU}
		return fn(New(r, cpu, []device.Device{gpu}, cfg))
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func allIDs(n int32) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// newLocal is boruvka.NewLocal for inputs the test knows to be valid.
func newLocal(t testing.TB, ids []int32, edges []graph.Edge) *boruvka.Local {
	t.Helper()
	l, err := boruvka.NewLocal(ids, edges)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// wholeView is the view of every vertex and edge of el.
func wholeView(t testing.TB, el *graph.EdgeList) *boruvka.Local {
	return newLocal(t, allIDs(el.N), el.Edges)
}

func TestIndCompCPUOnlyMatchesKruskal(t *testing.T) {
	el := gen.ConnectedRandom(300, 1200, 7)
	want := mst.Kruskal(el)
	v := wholeView(t, el)
	onRank(t, func(rt *Runtime) error {
		rt.Cfg.GPUShare = 0 // force CPU path
		res, err := rt.IndComp(v)
		if err != nil {
			return err
		}
		got := &mst.Forest{EdgeIDs: res.ChosenIDs, TotalWeight: weightOf(el, res.ChosenIDs), Components: res.Components}
		if !want.Equal(got) {
			return fmt.Errorf("forest mismatch: %d vs %d edges", len(got.EdgeIDs), len(want.EdgeIDs))
		}
		if res.Seconds <= 0 || rt.R.ComputeTime() <= 0 {
			return fmt.Errorf("time not charged")
		}
		return nil
	})
}

func TestIndCompHybridMatchesKruskal(t *testing.T) {
	el := gen.WebGraph(2000, 20000, 0.85, 9)
	want := mst.Kruskal(el)
	v := wholeView(t, el)
	onRank(t, func(rt *Runtime) error {
		res, err := rt.IndComp(v)
		if err != nil {
			return err
		}
		// Hybrid indComp over a fully-owned view with no external edges
		// must complete the whole forest: the node merge kernel sees no
		// cut edges.
		got := &mst.Forest{EdgeIDs: res.ChosenIDs, TotalWeight: weightOf(el, res.ChosenIDs), Components: res.Components}
		if !want.Equal(got) {
			return fmt.Errorf("hybrid forest mismatch: %d vs %d edges, components %d vs %d",
				len(got.EdgeIDs), len(want.EdgeIDs), got.Components, want.Components)
		}
		// Parent must map every vertex to its component representative,
		// a vertex that is its own parent.
		reps := 0
		for i, c := range res.Parent {
			if c == int32(i) {
				reps++
			} else if res.Parent[c] != c {
				return fmt.Errorf("parent of %d is %d, not a representative", i, c)
			}
		}
		if reps != res.Components {
			return fmt.Errorf("reps=%d components=%d", reps, res.Components)
		}
		return nil
	})
}

func TestIndCompHybridWithExternalEdges(t *testing.T) {
	// Owned {0..49} of a 100-vertex graph: chosen edges must be a subset
	// of the global MST even with the device split in play.
	el := gen.ErdosRenyi(100, 600, 11)
	want := mst.Kruskal(el)
	inMST := map[int32]bool{}
	for _, id := range want.EdgeIDs {
		inMST[id] = true
	}
	onRank(t, func(rt *Runtime) error {
		res, err := rt.IndComp(boruvka.NewWindow(el, el.Degrees(), 0, 50))
		if err != nil {
			return err
		}
		for _, id := range res.ChosenIDs {
			if !inMST[id] {
				return fmt.Errorf("chose non-MST edge %d", id)
			}
		}
		return nil
	})
}

func TestIndCompSmallGraphSkipsGPU(t *testing.T) {
	v := wholeView(t, gen.ConnectedRandom(20, 40, 13))
	onRank(t, func(rt *Runtime) error {
		rt.Cfg.MinGPUEdges = 1 << 30 // too small for GPU
		res, err := rt.IndComp(v)
		if err != nil {
			return err
		}
		if res.Components != 1 {
			return fmt.Errorf("components=%d", res.Components)
		}
		return nil
	})
}

func TestReduceRemovesSelfAndMultiEdges(t *testing.T) {
	// Local vertices 0..4 all join component 0; every ghost joins 10.
	parent := []int32{0, 0, 0, 0, 0}
	ghost := func(int32) int32 { return 10 }
	edges := []graph.Edge{
		{U: 1, V: 2, W: graph.MakeWeight(5, 0)},  // self after relabel
		{U: 3, V: 15, W: graph.MakeWeight(9, 1)}, // 0-10
		{U: 4, V: 17, W: graph.MakeWeight(3, 2)}, // 0-10, lighter: must win
	}
	v := newLocal(t, allIDs(5), edges)
	onRank(t, func(rt *Runtime) error {
		// Into nil, then into the list the view was built from.
		for _, dst := range [][]graph.Edge{nil, edges} {
			out := rt.Reduce(dst, v, parent, ghost)
			if len(out) != 1 || out[0] != (graph.Edge{U: 0, V: 10, W: graph.MakeWeight(3, 2)}) {
				return fmt.Errorf("dst %d edges: out=%+v", len(dst), out)
			}
		}
		return nil
	})
}

func TestPostProcessCompletesForest(t *testing.T) {
	el := gen.ConnectedRandom(200, 800, 17)
	want := mst.Kruskal(el)
	onRank(t, func(rt *Runtime) error {
		ids, err := rt.PostProcess(allIDs(el.N), el.Edges)
		if err != nil {
			return err
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		got := &mst.Forest{EdgeIDs: ids, TotalWeight: weightOf(el, ids), Components: int(el.N) - len(ids)}
		if !want.Equal(got) {
			return fmt.Errorf("postProcess wrong forest")
		}
		return nil
	})
}

func TestDiminishingTerminationStopsKernelEarlyOrNot(t *testing.T) {
	// On a long path the per-round time shrinks with the frontier, so the
	// detector should never fire before natural convergence; correctness
	// must hold either way.
	el := gen.RoadNetwork(900, 19)
	want := mst.Kruskal(el)
	v := wholeView(t, el)
	onRank(t, func(rt *Runtime) error {
		rt.Cfg.GPUShare = 0
		rt.Cfg.DiminishingTermination = true
		res, err := rt.IndComp(v)
		if err != nil {
			return err
		}
		inMST := map[int32]bool{}
		for _, id := range want.EdgeIDs {
			inMST[id] = true
		}
		for _, id := range res.ChosenIDs {
			if !inMST[id] {
				return fmt.Errorf("non-MST edge %d chosen", id)
			}
		}
		return nil
	})
}

func TestSplitByShares(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, // vertex 0 is heavy
		{U: 2, V: 3},
	}
	v := newLocal(t, allIDs(4), edges)
	for _, tc := range []struct {
		shares []float64
		want   []int
	}{
		{[]float64{0.5, 0.5}, []int{0, 2, 4}}, // vertex 0 alone is 3 of 8 arcs
		{[]float64{0.4, 0.3, 0.3}, []int{0, 1, 3, 4}},
		{[]float64{1}, []int{0, 4}},
		{[]float64{0, 0}, []int{0, 4, 4}}, // no positive share: all on device 0
		{[]float64{0, 1}, []int{0, 0, 4}},
	} {
		if got := splitByShares(v, tc.shares); !slices.Equal(got, tc.want) {
			t.Errorf("shares %v: bounds %v, want %v", tc.shares, got, tc.want)
		}
	}
	if got := splitByShares(newLocal(t, nil, nil), []float64{0.5, 0.5}); !slices.Equal(got, []int{0, 0, 0}) {
		t.Errorf("empty view: bounds %v", got)
	}
}

// TestDeviceEdgesMulti: a device's range of the node's view holds every
// edge with an endpoint on the device, and RangeEdges counts them; an edge
// across devices appears in each involved device, as a cut edge.
func TestDeviceEdgesMulti(t *testing.T) {
	// Component ids as a later iteration has them: scattered, with ghosts.
	ids := []int32{10, 20, 30, 40}
	edges := []graph.Edge{
		{U: 10, V: 20, W: graph.MakeWeight(0, 0)}, // dev0 only
		{U: 20, V: 30, W: graph.MakeWeight(0, 1)}, // both (cross-device)
		{U: 30, V: 40, W: graph.MakeWeight(0, 2)}, // dev1 only
		{U: 10, V: 99, W: graph.MakeWeight(0, 3)}, // dev0 only (99 external to node)
		{U: 40, V: 99, W: graph.MakeWeight(0, 4)}, // dev1 only
	}
	v := newLocal(t, ids, edges)
	for d, want := range [][]int32{{0, 1, 3}, {1, 2, 4}} {
		a, b := 2*d, 2*d+2
		var got []int32
		cut := 0
		for u := a; u < b; u++ {
			heads, w := v.Arcs(u)
			for i, x := range w {
				if id := graph.EdgeID(x); !slices.Contains(got, id) {
					got = append(got, id)
				}
				if h := heads[i]; h < int32(a) || h >= int32(b) {
					cut++
				}
			}
		}
		slices.Sort(got)
		if edges := v.RangeEdges(a, b); !slices.Equal(got, want) || edges != 3 || cut != 2 {
			t.Fatalf("dev%d: edges %v (RangeEdges %d, %d cut), want %v with 2 cut", d, got, edges, cut, want)
		}
	}
}

func weightOf(el *graph.EdgeList, ids []int32) uint64 {
	var s uint64
	for _, id := range ids {
		s += el.Edges[id].W
	}
	return s
}
