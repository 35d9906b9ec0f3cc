package graph

import (
	"math/rand"
	"mndmst/internal/parutil"
	"mndmst/internal/testutil"
	"strings"
	"testing"
	"testing/quick"
)

func TestMakeWeightRoundTrip(t *testing.T) {
	f := func(r uint16, eid int32) bool {
		eid &= eidMask
		w := MakeWeight(r, eid)
		return WeightRand(w) == r && int32(w&eidMask) == eid
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestMakeWeightDistinctness(t *testing.T) {
	// Same random part, different eids → distinct weights.
	a := MakeWeight(7, 1)
	b := MakeWeight(7, 2)
	if a == b {
		t.Fatal("weights with distinct eids must differ")
	}
	if a >= b {
		t.Fatal("eid ordering should break ties upward")
	}
}

// randomEdgeList builds a random graph with distinct weights.
func randomEdgeList(rng *rand.Rand, n, m int) *EdgeList {
	el := &EdgeList{N: int32(n)}
	for i := 0; i < m; i++ {
		el.Edges = append(el.Edges, Edge{
			U: int32(rng.Intn(n)),
			V: int32(rng.Intn(n)),
			W: MakeWeight(uint16(rng.Intn(1<<16)), int32(i)),
		})
	}
	return el
}

func TestValidate(t *testing.T) {
	el := &EdgeList{N: 3, Edges: []Edge{{U: 0, V: 2}}}
	if err := el.Validate(); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	bad := &EdgeList{N: 3, Edges: []Edge{{U: 0, V: 3}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	neg := &EdgeList{N: -1}
	if neg.Validate() == nil {
		t.Fatal("negative N accepted")
	}
}

// TestValidateRejectsUnpackedWeight: a weight must be MakeWeight(r, i)
// for its edge's index i. Wrong low bits and bits above the packed ones
// are both rejected, and the error names the edge.
func TestValidateRejectsUnpackedWeight(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    uint64
	}{
		{"another edge's id", MakeWeight(9, 0)},
		{"id off by one", MakeWeight(9, 2)},
		{"bit 42 set", MakeWeight(9, 1) | 1<<(eidBits+weightRandBits)},
		{"top bit set", MakeWeight(9, 1) | 1<<63},
	} {
		el := &EdgeList{N: 3, Edges: []Edge{
			{U: 0, V: 1, W: MakeWeight(1, 0)},
			{U: 1, V: 2, W: tc.w},
		}}
		err := el.Validate()
		if err == nil {
			t.Fatalf("%s: weight %#x accepted for edge 1", tc.name, tc.w)
		}
		if !strings.Contains(err.Error(), "edge 1 ") {
			t.Fatalf("%s: error %q does not name edge 1", tc.name, err)
		}
	}
	ok := &EdgeList{N: 2, Edges: []Edge{{U: 0, V: 1, W: MakeWeight(1<<16-1, 0)}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("the heaviest packed weight rejected: %v", err)
	}
}

func TestBuildCSRSmall(t *testing.T) {
	// Triangle plus a pendant: 0-1, 1-2, 2-0, 2-3.
	el := &EdgeList{N: 4, Edges: []Edge{
		{U: 0, V: 1, W: MakeWeight(1, 0)},
		{U: 1, V: 2, W: MakeWeight(2, 1)},
		{U: 2, V: 0, W: MakeWeight(3, 2)},
		{U: 2, V: 3, W: MakeWeight(4, 3)},
	}}
	g, err := BuildCSR(el)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M != 4 || g.NumArcs() != 8 {
		t.Fatalf("N=%d M=%d arcs=%d", g.N, g.M, g.NumArcs())
	}
	wantDeg := []int64{2, 2, 3, 1}
	for u, d := range wantDeg {
		if g.Degree(int32(u)) != d {
			t.Fatalf("degree(%d)=%d want %d", u, g.Degree(int32(u)), d)
		}
	}
	// Each arc must have a matching reverse arc with equal weight and eid.
	for u := int32(0); u < g.N; u++ {
		lo, hi := g.Arcs(u)
		for a := lo; a < hi; a++ {
			v := g.Dst[a]
			found := false
			vlo, vhi := g.Arcs(v)
			for b := vlo; b < vhi; b++ {
				if g.Dst[b] == u && g.W[b] == g.W[a] && g.EID[b] == g.EID[a] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("arc %d->%d has no reverse", u, v)
			}
		}
	}
}

func TestBuildCSRSelfLoop(t *testing.T) {
	el := &EdgeList{N: 2, Edges: []Edge{
		{U: 0, V: 0, W: MakeWeight(1, 0)},
		{U: 0, V: 1, W: MakeWeight(2, 1)},
	}}
	g := MustBuildCSR(el)
	if g.Degree(0) != 3 { // self-loop contributes two arcs
		t.Fatalf("degree(0)=%d want 3", g.Degree(0))
	}
	// The two arcs sit next to each other, in edge order like every arc.
	if lo, _ := g.Arcs(0); g.Dst[lo] != 0 || g.Dst[lo+1] != 0 || g.EID[lo] != 0 || g.EID[lo+1] != 0 {
		t.Fatalf("self-loop arcs not adjacent: dst %v eid %v", g.Dst, g.EID)
	}
}

func TestCSRRoundTripThroughEdgeList(t *testing.T) {
	rng := testutil.Rand(t, 11)
	el := randomEdgeList(rng, 50, 200)
	g := MustBuildCSR(el)
	// Rebuild the list from the arcs: each edge once, from its first arc.
	back := &EdgeList{N: g.N, Edges: make([]Edge, g.M)}
	seen := make([]bool, g.M)
	for u := int32(0); u < g.N; u++ {
		lo, hi := g.Arcs(u)
		for a := lo; a < hi; a++ {
			if eid := g.EID[a]; !seen[eid] {
				seen[eid] = true
				back.Edges[eid] = Edge{U: u, V: g.Dst[a], W: g.W[a]}
			}
		}
	}
	for i, e := range back.Edges {
		o := el.Edges[i]
		if e.W != o.W || !(e.U == o.U && e.V == o.V || e.U == o.V && e.V == o.U) {
			t.Fatalf("edge %d: CSR holds %+v, list had %+v", i, e, o)
		}
	}
	if back.N != el.N || len(back.Edges) != len(el.Edges) {
		t.Fatalf("round trip size mismatch: %d/%d edges", len(back.Edges), len(el.Edges))
	}
	if back.TotalWeight() != el.TotalWeight() {
		t.Fatalf("weight mismatch %d vs %d", back.TotalWeight(), el.TotalWeight())
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := MustBuildCSR(back)
	for u := int32(0); u < g.N; u++ {
		if g.Degree(u) != g2.Degree(u) {
			t.Fatalf("degree(%d) changed across round trip", u)
		}
	}
}

// TestBuildCSRPropertyDegreesMatchEdgeEndpoints: the CSR degrees and
// EdgeList.Degrees both count each edge endpoint once.
func TestBuildCSRPropertyDegreesMatchEdgeEndpoints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := rng.Intn(120)
		el := randomEdgeList(rng, n, m)
		g := MustBuildCSR(el)
		deg := make([]int64, n)
		for _, e := range el.Edges {
			deg[e.U]++
			deg[e.V]++
		}
		counted := el.Degrees()
		for u := 0; u < n; u++ {
			if g.Degree(int32(u)) != deg[u] || counted[u] != deg[u] {
				return false
			}
		}
		return g.NumArcs() == 2*int64(m)
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 50)); err != nil {
		t.Fatal(err)
	}
}

// TestBuildCSRArcsInEdgeOrder: every vertex's arcs are in ascending edge
// id, however many workers the parallel kernels may use. Four hubs share
// 32768 edges, far above any parallel grain, so a layout that depended on
// which goroutine claimed a slot first would show here.
func TestBuildCSRArcsInEdgeOrder(t *testing.T) {
	old := parutil.SetMaxWorkers(8)
	defer parutil.SetMaxWorkers(old)
	rng := testutil.Rand(t, 5)
	const n, m = 512, 1 << 15
	el := &EdgeList{N: n}
	for i := int32(0); i < m; i++ {
		el.Edges = append(el.Edges, Edge{
			U: int32(rng.Intn(4)),
			V: int32(rng.Intn(n)),
			W: MakeWeight(uint16(rng.Intn(1<<16)), i),
		})
	}
	g := MustBuildCSR(el)
	for u := int32(0); u < g.N; u++ {
		lo, hi := g.Arcs(u)
		for a := lo + 1; a < hi; a++ {
			if g.EID[a] < g.EID[a-1] { // equal only for a self-loop's two arcs
				t.Fatalf("vertex %d: arc %d has edge id %d after %d", u, a-lo, g.EID[a], g.EID[a-1])
			}
		}
	}
}

func TestStatsPath(t *testing.T) {
	// Path 0-1-2-3-4: diameter 4, avg degree 1.6, max degree 2.
	el := &EdgeList{N: 5}
	for i := int32(0); i < 4; i++ {
		el.Edges = append(el.Edges, Edge{U: i, V: i + 1, W: MakeWeight(uint16(i), i)})
	}
	st := ComputeStats(MustBuildCSR(el))
	if st.ApproxDiam != 4 {
		t.Fatalf("diam=%d want 4", st.ApproxDiam)
	}
	if st.MaxDegree != 2 || st.Components != 1 || st.LargestComp != 5 {
		t.Fatalf("stats=%+v", st)
	}
	if st.AvgDegree != 1.6 {
		t.Fatalf("avg=%f", st.AvgDegree)
	}
}

func TestStatsDisconnected(t *testing.T) {
	el := &EdgeList{N: 6, Edges: []Edge{
		{U: 0, V: 1, W: MakeWeight(1, 0)},
		{U: 2, V: 3, W: MakeWeight(2, 1)},
		{U: 3, V: 4, W: MakeWeight(3, 2)},
	}}
	st := ComputeStats(MustBuildCSR(el))
	if st.Components != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("components=%d want 3", st.Components)
	}
	if st.LargestComp != 3 {
		t.Fatalf("largest=%d want 3", st.LargestComp)
	}
	if st.ApproxDiam != 2 { // within {2,3,4}
		t.Fatalf("diam=%d want 2", st.ApproxDiam)
	}
}

func TestStatsEmpty(t *testing.T) {
	st := ComputeStats(MustBuildCSR(&EdgeList{N: 0}))
	if st.V != 0 || st.E != 0 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestCountComponents(t *testing.T) {
	el := &EdgeList{N: 4, Edges: []Edge{{U: 0, V: 1, W: MakeWeight(1, 0)}}}
	if got := CountComponents(MustBuildCSR(el)); got != 3 {
		t.Fatalf("components=%d want 3", got)
	}
}

// TestWeightLessTotalOrderUnderEqualClasses pins the determinism contract
// the merge path's tie-breaks rest on: within one 16-bit weight class the
// order is exactly the edge-id order.
func TestWeightLessTotalOrderUnderEqualClasses(t *testing.T) {
	for i := int32(0); i < 200; i++ {
		for j := int32(0); j < 200; j++ {
			got := WeightLess(MakeWeight(7, i), MakeWeight(7, j))
			if got != (i < j) {
				t.Fatalf("WeightLess(class7:%d, class7:%d) = %v, want %v", i, j, got, i < j)
			}
		}
	}
	// Across classes the class dominates regardless of edge id.
	if !WeightLess(MakeWeight(3, 1000), MakeWeight(4, 0)) {
		t.Fatal("weight class does not dominate edge id")
	}
}
