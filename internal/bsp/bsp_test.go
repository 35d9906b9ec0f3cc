package bsp

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/mst"
)

func amd() cost.Machine { return cost.AMDCluster() }

func TestBSPMatchesKruskalAcrossRankCounts(t *testing.T) {
	el := gen.ConnectedRandom(400, 1600, 111)
	want := mst.Kruskal(el)
	for _, p := range []int{1, 2, 4, 8} {
		res, err := Run(context.Background(), el, p, amd())
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !want.Equal(res.Forest) {
			t.Fatalf("p=%d: forest mismatch: %d vs %d edges, weight %d vs %d",
				p, len(res.Forest.EdgeIDs), len(want.EdgeIDs), res.Forest.TotalWeight, want.TotalWeight)
		}
		if err := mst.VerifyForest(el, res.Forest); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Rounds < 1 || res.Supersteps <= res.Rounds {
			t.Fatalf("p=%d: rounds=%d supersteps=%d", p, res.Rounds, res.Supersteps)
		}
	}
}

func TestBSPWorkloadFamilies(t *testing.T) {
	for _, tc := range []struct {
		name string
		el   *graph.EdgeList
	}{
		{"road", gen.RoadNetwork(900, 113)},
		{"web", gen.WebGraph(1024, 10240, 0.85, 114)},
		{"multiedges", gen.ErdosRenyi(300, 2000, 115)},
		{"path", gen.Path(128, 116)},
		{"star", gen.Star(128, 117)},
	} {
		want := mst.Kruskal(tc.el)
		res, err := Run(context.Background(), tc.el, 4, amd())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !want.Equal(res.Forest) {
			t.Fatalf("%s: forest mismatch", tc.name)
		}
	}
}

func TestBSPDisconnectedAndEmpty(t *testing.T) {
	el := &graph.EdgeList{N: 7, Edges: []graph.Edge{
		{U: 0, V: 1, W: graph.MakeWeight(3, 0)},
		{U: 4, V: 5, W: graph.MakeWeight(1, 1)},
	}}
	res, err := Run(context.Background(), el, 3, amd())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forest.EdgeIDs) != 2 || res.Forest.Components != 5 {
		t.Fatalf("forest=%+v", res.Forest)
	}

	empty := &graph.EdgeList{N: 4}
	res, err = Run(context.Background(), empty, 2, amd())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forest.EdgeIDs) != 0 || res.Forest.Components != 4 {
		t.Fatalf("forest=%+v", res.Forest)
	}
}

func TestBSPPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(5 + rng.Intn(150))
		m := rng.Intn(int(n) * 4)
		el := gen.ErdosRenyi(n, m, seed)
		p := 1 + rng.Intn(6)
		res, err := Run(context.Background(), el, p, amd())
		if err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		want := mst.Kruskal(el)
		if !want.Equal(res.Forest) {
			t.Logf("seed=%d p=%d: mismatch", seed, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBSPDeterministicTimes(t *testing.T) {
	el := gen.WebGraph(1024, 8192, 0.8, 119)
	ref, err := Run(context.Background(), el, 4, amd())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := Run(context.Background(), el, 4, amd())
		if err != nil {
			t.Fatal(err)
		}
		if got.Report.ExecutionTime() != ref.Report.ExecutionTime() ||
			got.Report.TotalBytes() != ref.Report.TotalBytes() ||
			got.Supersteps != ref.Supersteps {
			t.Fatalf("run %d: nondeterministic metrics", i)
		}
	}
}

func TestBSPCommunicationDominatesAtScale(t *testing.T) {
	// The paper's central observation (Figure 5): at 16 nodes Pregel+
	// spends most of its time communicating, while MND-MST spends most of
	// its time computing.
	prof, err := gen.ProfileByName("arabic-2005")
	if err != nil {
		t.Fatal(err)
	}
	el := prof.Generate(0.25)
	bspRes, err := Run(context.Background(), el, 16, amd())
	if err != nil {
		t.Fatal(err)
	}
	mndRes, err := core.Run(context.Background(), el, 16, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !bspRes.Forest.Equal(mndRes.Forest) {
		t.Fatal("BSP and MND-MST disagree on the forest")
	}

	bspCommFrac := bspRes.Report.CommTime() / bspRes.Report.ExecutionTime()
	mndCommFrac := mndRes.Report.CommTime() / mndRes.Report.ExecutionTime()
	if bspCommFrac < 0.5 {
		t.Fatalf("BSP comm fraction %.2f; expected communication-bound", bspCommFrac)
	}
	if mndCommFrac >= bspCommFrac {
		t.Fatalf("MND comm fraction %.2f not below BSP %.2f", mndCommFrac, bspCommFrac)
	}
	// And MND-MST must be faster overall (Table 3).
	if mndRes.Report.ExecutionTime() >= bspRes.Report.ExecutionTime() {
		t.Fatalf("MND (%g) not faster than BSP (%g)",
			mndRes.Report.ExecutionTime(), bspRes.Report.ExecutionTime())
	}
}

func TestBSPManyMessagesPerRound(t *testing.T) {
	el := gen.WebGraph(2048, 16384, 0.8, 121)
	res, err := Run(context.Background(), el, 8, amd())
	if err != nil {
		t.Fatal(err)
	}
	// Every superstep is an all-to-all: message count must far exceed what
	// MND-MST needs on the same input.
	mnd, err := core.Run(context.Background(), el, 8, amd(), hypar.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalMsgs() <= 3*mnd.Report.TotalMsgs() {
		t.Fatalf("BSP msgs=%d vs MND msgs=%d: BSP should message far more",
			res.Report.TotalMsgs(), mnd.Report.TotalMsgs())
	}
}

func TestVanillaPregelSameForestMoreBytes(t *testing.T) {
	el := gen.WebGraph(2048, 20480, 0.7, 123)
	plus, err := RunWith(context.Background(), el, 8, amd(), Options{Combining: true})
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := RunWith(context.Background(), el, 8, amd(), Options{Combining: false})
	if err != nil {
		t.Fatal(err)
	}
	if !plus.Forest.Equal(vanilla.Forest) {
		t.Fatal("combining changed the forest")
	}
	if err := mst.VerifyForest(el, vanilla.Forest); err != nil {
		t.Fatal(err)
	}
	// The combiner's whole point: strictly less traffic.
	if vanilla.Report.TotalBytes() <= plus.Report.TotalBytes() {
		t.Fatalf("vanilla bytes %d not above combined %d",
			vanilla.Report.TotalBytes(), plus.Report.TotalBytes())
	}
}

// TestBSPModeledFiguresPinned pins the modeled figures of a web graph with
// self-loops under both combiner settings. The rank's window keeps one arc
// per self-loop where a CSR has two, and Pregel+'s adjacency copy and
// first-round scan are charged per CSR arc; a self-loop charged once moves
// the compute seconds of the rank that owns it.
func TestBSPModeledFiguresPinned(t *testing.T) {
	el := gen.WebGraph(512, 4096, 0.85, 126)
	loops := 0
	for _, e := range el.Edges {
		if e.U == e.V {
			loops++
		}
	}
	if loops == 0 {
		t.Fatal("the graph has no self-loops to pin")
	}
	type seconds struct{ compute, comm float64 }
	for _, tc := range []struct {
		combining          bool
		bytes, msgs        int64
		rounds, supersteps int
		ranks              []seconds
	}{
		{true, 35472, 675, 5, 74, []seconds{
			{0.0002547133333333333, 0.010726513333333347},
			{0.00025123999999999996, 0.010729960000000014},
			{0.00024147666666666666, 0.010739750000000013},
			{0.00023743666666666664, 0.010743743333333345},
		}},
		{false, 58856, 675, 5, 74, []seconds{
			{0.0002850133333333333, 0.010734013333333348},
			{0.00026964, 0.010749360000000019},
			{0.0002593433333333333, 0.010759683333333355},
			{0.0002490533333333333, 0.010769926666666685},
		}},
	} {
		res, err := RunWith(context.Background(), el, 4, amd(), Options{Combining: tc.combining})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		if rep.TotalBytes() != tc.bytes || rep.TotalMsgs() != tc.msgs || res.Rounds != tc.rounds || res.Supersteps != tc.supersteps {
			t.Fatalf("combining=%v: %d bytes, %d msgs, %d rounds, %d supersteps; want %d, %d, %d, %d", tc.combining,
				rep.TotalBytes(), rep.TotalMsgs(), res.Rounds, res.Supersteps, tc.bytes, tc.msgs, tc.rounds, tc.supersteps)
		}
		for i, want := range tc.ranks {
			if got := (seconds{rep.Ranks[i].Compute, rep.Ranks[i].Comm}); got != want {
				t.Errorf("combining=%v rank %d: compute, comm = %v, %v s; want %v, %v s", tc.combining, i, got.compute, got.comm, want.compute, want.comm)
			}
		}
	}
}
