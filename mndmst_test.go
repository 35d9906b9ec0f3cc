package mndmst

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mndmst/internal/graph"
	"mndmst/internal/trace"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g := GenerateWebGraph(4096, 40_000, 0.85, 1)
	res, err := FindMSF(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	seq := FindMSFSequential(g)
	if seq.TotalWeight != res.TotalWeight {
		t.Fatalf("weights differ: %d vs %d", seq.TotalWeight, res.TotalWeight)
	}
	if res.SimSeconds <= 0 || res.ComputeSeconds <= 0 {
		t.Fatalf("metrics missing: %+v", res)
	}
	if len(res.Phases) == 0 {
		t.Fatal("no phase breakdown")
	}
}

func TestPublicAPIBSPAgreesWithMND(t *testing.T) {
	g := GenerateRoadNetwork(900, 2)
	a, err := FindMSF(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindMSFBSP(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalWeight != b.TotalWeight || len(a.EdgeIDs) != len(b.EdgeIDs) {
		t.Fatal("MND and BSP disagree")
	}
	if err := Verify(g, b); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPINewGraphAndAccessors(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1, Weight: 5}, {U: 1, V: 2, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("counts: %d %d", g.NumVertices(), g.NumEdges())
	}
	if e := g.EdgeAt(1); e.U != 1 || e.V != 2 || e.Weight != 3 {
		t.Fatalf("edge=%+v", e)
	}
	res, err := FindMSF(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeIDs) != 2 || res.Components != 1 {
		t.Fatalf("res=%+v", res)
	}

	if _, err := NewGraph(2, []Edge{{U: 0, V: 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestPublicAPIGPU(t *testing.T) {
	g := GenerateWebGraph(8192, 120_000, 0.85, 3)
	res, err := FindMSF(g, Options{Nodes: 4, Machine: CrayXC40, UseGPU: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIProfilesAndStats(t *testing.T) {
	names := ProfileNames()
	if len(names) != 6 || names[0] != "road_usa" {
		t.Fatalf("profiles=%v", names)
	}
	g, err := GenerateProfile("road_usa", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	if st.Vertices == 0 || st.AvgDegree <= 0 || st.ApproxDiam <= 0 {
		t.Fatalf("stats=%+v", st)
	}
	if _, err := GenerateProfile("nope", 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestPublicAPISaveLoad(t *testing.T) {
	g := GenerateRMAT(128, 512, 4)
	path := filepath.Join(t.TempDir(), "g.mnd")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() || back.NumVertices() != g.NumVertices() {
		t.Fatal("round trip size mismatch")
	}
	a := FindMSFSequential(g)
	b := FindMSFSequential(back)
	if a.TotalWeight != b.TotalWeight {
		t.Fatal("round trip changed the MSF")
	}
}

// TestLoadGraphRejectsUnpackedWeight: a .mnd file whose weights do not
// pack their edge's index fails to load, with an error that names the
// edge, rather than being re-packed under a digest that is not its file's.
func TestLoadGraphRejectsUnpackedWeight(t *testing.T) {
	buf := []byte("MNDMSTG1")
	buf = binary.LittleEndian.AppendUint32(buf, 3)
	buf = binary.LittleEndian.AppendUint64(buf, 2)
	for _, e := range []graph.Edge{
		{U: 0, V: 1, W: graph.MakeWeight(4, 0)},
		{U: 1, V: 2, W: graph.MakeWeight(4, 7)}, // packs id 7, not 1
	} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
		buf = binary.LittleEndian.AppendUint64(buf, e.W)
	}
	path := filepath.Join(t.TempDir(), "unpacked.mnd")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadGraph(path)
	if err == nil || !strings.Contains(err.Error(), "edge 1 ") {
		t.Fatalf("LoadGraph of an unpacked weight: err = %v, want one naming edge 1", err)
	}
}

func TestPublicAPIOptionVariants(t *testing.T) {
	g := GenerateWebGraph(2048, 16_000, 0.8, 5)
	want := FindMSFSequential(g)
	for _, opts := range []Options{
		{Nodes: 4, GroupSize: 2},
		{Nodes: 4, Exception: BorderEdge},
		{Nodes: 4, DiminishingTermination: true},
		{Nodes: 4, TopologyDriven: true},
		{Nodes: 0}, // defaults
	} {
		res, err := FindMSF(g, opts)
		if err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		if res.TotalWeight != want.TotalWeight {
			t.Fatalf("opts=%+v: wrong forest", opts)
		}
	}
}

func TestMachineString(t *testing.T) {
	if AMDCluster.String() == "" || CrayXC40.String() == "" {
		t.Fatal("machine names empty")
	}
	if AMDCluster.String() == CrayXC40.String() {
		t.Fatal("machine names collide")
	}
}

func TestPublicAPIContraction(t *testing.T) {
	g := GenerateRoadNetwork(2500, 11)
	want := FindMSFSequential(g)
	res, err := FindMSF(g, Options{Nodes: 4, Contraction: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWeight != want.TotalWeight {
		t.Fatal("contraction changed the forest")
	}
}

func TestPublicAPITrace(t *testing.T) {
	g := GenerateWebGraph(2048, 16_000, 0.8, 7)
	res, err := FindMSF(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("trace missing")
	}
	var jsonl strings.Builder
	if err := res.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"kind":"rank"`, `"kind":"phase"`} {
		if !strings.Contains(jsonl.String(), kind) {
			t.Fatalf("jsonl missing %s records", kind)
		}
	}
	if !strings.Contains(res.Trace.Profile(), "load balance") {
		t.Fatal("profile missing summary")
	}
	if FindMSFSequential(g).Trace != nil {
		t.Fatal("sequential result should have no trace")
	}
}

// TestFindMSFRepeatsAllButMeasuredTime: an in-process run measures its
// total and every phase it ran, and two runs of one request agree on every
// Result field except those measurements.
func TestFindMSFRepeatsAllButMeasuredTime(t *testing.T) {
	g := GenerateWebGraph(2048, 16_000, 0.8, 7)
	var runs [2]*Result
	for i := range runs {
		res, err := FindMSF(g, Options{Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.WallSeconds <= 0 {
			t.Fatalf("run %d: WallSeconds = %g, want > 0", i, res.WallSeconds)
		}
		for _, ph := range res.Phases {
			if ph.Wall <= 0 {
				t.Fatalf("run %d: phase %s Wall = %g, want > 0", i, ph.Phase, ph.Wall)
			}
		}
		runs[i] = res
	}
	// simulated strips the measured fields, including the walls the trace
	// records carry.
	simulated := func(res *Result) (Result, []trace.Record) {
		c := *res
		c.WallSeconds = 0
		c.Phases = append([]PhaseTime(nil), res.Phases...)
		for i := range c.Phases {
			c.Phases[i].Wall = 0
		}
		c.Trace = nil
		recs := res.Trace.Records()
		for i := range recs {
			recs[i].Wall = 0
		}
		return c, recs
	}
	a, aRecs := simulated(runs[0])
	b, bRecs := simulated(runs[1])
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ beyond measured time:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(aRecs, bRecs) {
		t.Fatal("trace records differ beyond measured time")
	}
}

func TestPublicAPIShared(t *testing.T) {
	g := GenerateWebGraph(8192, 100_000, 0.85, 13)
	shared, err := FindMSFShared(g)
	if err != nil {
		t.Fatal(err)
	}
	seq := FindMSFSequential(g)
	if shared.TotalWeight != seq.TotalWeight || len(shared.EdgeIDs) != len(seq.EdgeIDs) {
		t.Fatal("shared-memory kernel disagrees with sequential")
	}
	if err := Verify(g, shared); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITextGraph(t *testing.T) {
	g := GenerateRMAT(64, 256, 15)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveTextGraph(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTextGraph(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d vs %d", back.NumEdges(), g.NumEdges())
	}
	a := FindMSFSequential(g)
	b := FindMSFSequential(back)
	if a.TotalWeight != b.TotalWeight {
		t.Fatal("text round trip changed the MSF")
	}
	if _, err := LoadTextGraph(filepath.Join(t.TempDir(), "nope"), 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPublicAPIHeterogeneous(t *testing.T) {
	g := GenerateWebGraph(2048, 20_000, 0.85, 17)
	res, err := FindMSF(g, Options{Nodes: 3, NodeSpeeds: []float64{1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	if _, err := FindMSF(g, Options{Nodes: 2, NodeSpeeds: []float64{1, 2, 3}}); err == nil {
		t.Fatal("mismatched NodeSpeeds length accepted")
	}
}
