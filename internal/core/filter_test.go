package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
)

func filtered() hypar.Config {
	cfg := hypar.DefaultConfig()
	cfg.Filter = true
	return cfg
}

func TestFilterFiresAtFiveEdgesPerVertex(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		want bool
	}{{0, 0, false}, {1, 4, false}, {1, 5, true}, {100, 499, false}, {100, 500, true}, {100, 5000, true}} {
		el := &graph.EdgeList{N: int32(tc.n), Edges: make([]graph.Edge, tc.m)}
		if got := filterFires(el); got != tc.want {
			t.Errorf("n=%d m=%d: filterFires = %t, want %t", tc.n, tc.m, got, tc.want)
		}
	}
}

// TestFilteredRunMatchesKruskal runs the filtered pipeline on dense graphs
// of every family at rank counts with even and uneven broadcast trees.
func TestFilteredRunMatchesKruskal(t *testing.T) {
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
	}{
		{"web", gen.WebGraph(800, 16_000, 0.8, 41)},
		{"rmat", gen.RMAT(512, 8192, 42)},
		{"erdos-with-multiedges", gen.ErdosRenyi(300, 3000, 43)},
		{"barabasi-albert", gen.BarabasiAlbert(600, 8, 44)},
		{"complete", gen.Complete(40, 45)},
	} {
		for _, p := range []int{1, 2, 3, 4, 7, 16} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, p), func(t *testing.T) {
				res, err := Run(context.Background(), tc.el, p, amd(), filtered(), false)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyAgainstKruskal(tc.el, res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFilteredRunOddShapes covers a graph whose edges are all self-loops
// (empty light and heavy passes, and ranks with no edges to sample), a
// pair joined by parallel edges only (the heavy pass filters everything)
// and several dense components.
func TestFilteredRunOddShapes(t *testing.T) {
	loops := &graph.EdgeList{N: 1}
	for i := range 5 {
		loops.Edges = append(loops.Edges, graph.Edge{W: graph.MakeWeight(uint16(i), int32(i))})
	}
	pair := &graph.EdgeList{N: 2}
	for i := range 10 {
		pair.Edges = append(pair.Edges, graph.Edge{U: int32(i % 2), V: int32(1 - i%2), W: graph.MakeWeight(uint16(7-i%3), int32(i))})
	}
	islands := &graph.EdgeList{N: 90}
	for c := range int32(3) {
		for _, e := range gen.Complete(30, int64(50+c)).Edges {
			islands.Edges = append(islands.Edges, graph.Edge{U: 30*c + e.U, V: 30*c + e.V,
				W: graph.MakeWeight(graph.WeightRand(e.W), int32(len(islands.Edges)))})
		}
	}
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
	}{{"self-loops", loops}, {"parallel-pair", pair}, {"three-cliques", islands}} {
		for _, p := range []int{1, 4, 16} {
			res, err := Run(context.Background(), tc.el, p, amd(), filtered(), false)
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			if err := VerifyAgainstKruskal(tc.el, res); err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
		}
	}
}

// TestFilteredRunSumsPasses checks the filtered run's Result on a dense
// web graph: both passes' iterations are counted, the peak is a pass's,
// the extra steps are charged to the partition phase and no phase is
// added, and a second run repeats everything but the measured walls.
func TestFilteredRunSumsPasses(t *testing.T) {
	el := gen.WebGraph(2000, 40_000, 0.8, 61)
	const p = 4
	paper, err := Run(context.Background(), el, p, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]*Result
	for i := range runs {
		if runs[i], err = Run(context.Background(), el, p, amd(), filtered(), false); err != nil {
			t.Fatal(err)
		}
	}
	res := runs[0]
	if err := VerifyAgainstKruskal(el, res); err != nil {
		t.Fatal(err)
	}
	// Each pass runs at least one iteration on 4 ranks.
	if res.Iterations < 2 {
		t.Fatalf("iterations = %d, want both passes' (>= 2)", res.Iterations)
	}
	if res.PeakEdges <= 0 || res.PeakEdges >= paper.PeakEdges {
		t.Fatalf("peak = %d, want in (0, %d): a pass holds a fraction of the edges", res.PeakEdges, paper.PeakEdges)
	}
	if got, want := res.Report.PhaseNames(), paper.Report.PhaseNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("phases %v, want %v", got, want)
	}
	if c, _ := res.Report.PhaseTime(PhasePartition); c <= 0 {
		t.Fatalf("partition compute %g, want the filter's charges", c)
	}
	if res.Report.TotalMsgs() <= paper.Report.TotalMsgs() {
		t.Fatalf("messages %d, want more than one pass's %d", res.Report.TotalMsgs(), paper.Report.TotalMsgs())
	}
	if a, b := withoutWalls(runs[0]), withoutWalls(runs[1]); !reflect.DeepEqual(a, b) {
		t.Fatal("two filtered runs differ beyond measured time")
	}
}

// TestFilteredRunDistributedMatchesInProcess checks that TCP ranks, each
// building the filtered lists on its own, report the in-process forest
// and simulated figures.
func TestFilteredRunDistributedMatchesInProcess(t *testing.T) {
	el := gen.WebGraph(600, 9000, 0.7, 71)
	const p = 3
	want, err := Run(context.Background(), el, p, amd(), filtered(), false)
	if err != nil {
		t.Fatal(err)
	}
	got := runDistributedMST(t, el, p, filtered())[0]
	if !got.Forest.Equal(want.Forest) {
		t.Fatal("distributed filtered forest differs from the in-process one")
	}
	if got.Report.ExecutionTime() != want.Report.ExecutionTime() || got.Report.TotalBytes() != want.Report.TotalBytes() ||
		got.Iterations != want.Iterations || got.Levels != want.Levels || got.PeakEdges != want.PeakEdges {
		t.Fatalf("distributed figures differ: exec %g/%g bytes %d/%d it %d/%d levels %d/%d peak %d/%d",
			got.Report.ExecutionTime(), want.Report.ExecutionTime(), got.Report.TotalBytes(), want.Report.TotalBytes(),
			got.Iterations, want.Iterations, got.Levels, want.Levels, got.PeakEdges, want.PeakEdges)
	}
}

// TestFilteredRunWithGPU runs both passes with the CPU+GPU split.
func TestFilteredRunWithGPU(t *testing.T) {
	el := gen.WebGraph(4000, 60_000, 0.85, 81)
	cfg := filtered()
	cfg.MinGPUEdges = 256
	res, err := Run(context.Background(), el, 2, cray(), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstKruskal(el, res); err != nil {
		t.Fatal(err)
	}
}
