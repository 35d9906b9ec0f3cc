package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mndmst/internal/cluster"
	"mndmst/internal/device"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/merge"
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
// web graph whose heavy edges fit one rank: rank 0 post-processes them, so
// the iterations are the light pass's, the messages are the light pass's
// plus the broadcast's, the peak covers the heavy list, the extra
// steps are charged to the partition phase and no phase is added, and a
// second run repeats everything but the measured walls.
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
	lp := runLightPass(t, el, p, filtered())
	if h := int64(len(lp.heavy.Edges)); h == 0 || h > mergeThreshold(filtered(), len(el.Edges), p) {
		t.Fatalf("%d heavy edges, want some that fit one rank", h)
	}
	if res.Iterations != lp.iterations {
		t.Fatalf("iterations = %d, want the light pass's %d", res.Iterations, lp.iterations)
	}
	if res.PeakEdges < len(lp.heavy.Edges) || res.PeakEdges >= paper.PeakEdges {
		t.Fatalf("peak = %d, want in [%d, %d): at least the heavy list, a fraction of the edges",
			res.PeakEdges, len(lp.heavy.Edges), paper.PeakEdges)
	}
	if got, want := res.Report.PhaseNames(), paper.Report.PhaseNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("phases %v, want %v", got, want)
	}
	if c, _ := res.Report.PhaseTime(PhasePartition); c <= 0 {
		t.Fatalf("partition compute %g, want the filter's charges", c)
	}
	if got, bc := res.Report.TotalMsgs(), lp.broadcastMsgs(p); got != lp.msgs+bc {
		t.Fatalf("messages %d, want the light pass's %d plus the broadcast's %d", got, lp.msgs, bc)
	}
	if a, b := withoutWalls(runs[0]), withoutWalls(runs[1]); !reflect.DeepEqual(a, b) {
		t.Fatal("two filtered runs differ beyond measured time")
	}
}

// lightPassRun is a filtered run's light pass alone: its iterations and
// messages, its forest's size and the heavy list the forest leaves.
type lightPassRun struct {
	iterations int
	msgs       int64
	forest     int
	heavy      *graph.EdgeList
}

// broadcastMsgs is the message count of the light forest's broadcast to p
// ranks: p − 1 transfers, each a chunk-count header and the chunks of the
// length-prefixed edge ids.
func (lp lightPassRun) broadcastMsgs(p int) int64 {
	const chunk = merge.DefaultChunk
	return int64(p-1) * int64(1+(8+4*lp.forest+chunk-1)/chunk)
}

// runLightPass runs the first part of a filtered run on p in-process
// ranks of amd(): the pivot sample, the light pass and its gather.
func runLightPass(t *testing.T, el *graph.EdgeList, p int, cfg hypar.Config) lightPassRun {
	t.Helper()
	machine := amd()
	lists := &filterLists{}
	var pivot uint64
	var forest []int32
	var out lightPassRun
	rep, err := cluster.New(p, machine.Comm).Run(context.Background(), func(r *cluster.Rank) error {
		m := &rankMain{r: r, rt: hypar.New(r, &device.CPU{Model: machine.CPU}, nil, cfg), el: el, cfg: cfg,
			machine: machine, lists: lists}
		e := len(el.Edges)
		pv := m.samplePivot(r.ID()*e/p, (r.ID()+1)*e/p)
		if err := m.pass(lists.lightOf(el, pv)); err != nil {
			return err
		}
		ids, err := m.gather()
		if r.ID() == 0 {
			pivot, forest, out.iterations = pv, ids, m.iter
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out.msgs, out.forest = rep.TotalMsgs(), len(forest)
	out.heavy = (&filterLists{}).heavyOf(el, pivot, forest)
	return out
}

// twoClusters is two cliques of k vertices each, joined by every cross
// pair; each cross edge is heavier than any edge inside a clique.
func twoClusters(k int32, seed int64) *graph.EdgeList {
	rng := rand.New(rand.NewSource(seed))
	el := &graph.EdgeList{N: 2 * k}
	add := func(u, v int32, lo int) {
		el.Edges = append(el.Edges, graph.Edge{U: u, V: v,
			W: graph.MakeWeight(uint16(lo+rng.Intn(1000)), int32(len(el.Edges)))})
	}
	for c := range int32(2) {
		for u := range k {
			for v := u + 1; v < k; v++ {
				add(c*k+u, c*k+v, 0)
			}
		}
	}
	for u := range k {
		for v := range k {
			add(u, k+v, 2000)
		}
	}
	return el
}

// TestFilteredRunHeavyBranches covers both ways a filtered run finishes
// its heavy edges: post-processed on rank 0 when they fit one rank, with
// no message beyond the light pass's and the broadcast's, and the heavy
// pass otherwise — here because every cross edge of two clusters is heavy
// and the cross edges outnumber one rank's share, or because the merge
// threshold is 1.
func TestFilteredRunHeavyBranches(t *testing.T) {
	one := filtered()
	one.MergeEdgeThreshold = 1
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
		cfg  hypar.Config
		fits bool
	}{
		{"fits", gen.WebGraph(800, 16_000, 0.8, 91), filtered(), true},
		{"two-clusters", twoClusters(40, 92), filtered(), false},
		{"threshold-1", gen.WebGraph(800, 16_000, 0.8, 91), one, false},
	} {
		for _, p := range []int{4, 16} {
			t.Run(fmt.Sprintf("%s/p%d", tc.name, p), func(t *testing.T) {
				lp := runLightPass(t, tc.el, p, tc.cfg)
				h := int64(len(lp.heavy.Edges))
				if fits := h <= mergeThreshold(tc.cfg, len(tc.el.Edges), p); h == 0 || fits != tc.fits {
					t.Fatalf("%d heavy edges fit one rank: %t, want %t and some heavy edges", h, fits, tc.fits)
				}
				res, err := Run(context.Background(), tc.el, p, amd(), tc.cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyAgainstKruskal(tc.el, res); err != nil {
					t.Fatal(err)
				}
				msgs, bc := res.Report.TotalMsgs(), lp.broadcastMsgs(p)
				switch {
				case tc.fits && (res.Iterations != lp.iterations || msgs != lp.msgs+bc):
					t.Fatalf("iterations %d, messages %d; want the light pass's %d and %d plus the broadcast's %d",
						res.Iterations, msgs, lp.iterations, lp.msgs, bc)
				case !tc.fits && (res.Iterations <= lp.iterations || msgs <= lp.msgs+bc):
					t.Fatalf("iterations %d, messages %d; want the heavy pass's beyond the light pass's %d and %d plus the broadcast's %d",
						res.Iterations, msgs, lp.iterations, lp.msgs, bc)
				}
			})
		}
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
