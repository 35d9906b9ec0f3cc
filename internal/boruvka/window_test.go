package boruvka

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/partition"
	"mndmst/internal/testutil"
)

// messyGraph is a seeded RMAT graph (power-law hubs, some self-loops and
// parallel edges) with extra self-loops and parallel copies of random
// edges appended, so most windows see all three.
func messyGraph(n int32, m int, seed int64) *graph.EdgeList {
	el := gen.RMAT(n, m, seed)
	rng := rand.New(rand.NewSource(seed))
	base := len(el.Edges)
	for i := 0; i < base/4; i++ {
		e := el.Edges[rng.Intn(base)]
		if i%2 == 0 {
			e.V = e.U
		}
		id := int32(len(el.Edges))
		el.Edges = append(el.Edges, graph.Edge{U: e.U, V: e.V, W: graph.MakeWeight(uint16(rng.Intn(1<<16)), id)})
	}
	return el
}

// windowRanges returns every range of BalancedBounds over el for each
// rank count, P > N included.
func windowRanges(el *graph.EdgeList) [][2]int32 {
	deg := el.Degrees()
	var out [][2]int32
	for _, p := range []int{1, 2, 3, 4, 16} {
		b := partition.BalancedBounds(deg, p)
		for i := 0; i < p; i++ {
			out = append(out, [2]int32{b[i], b[i+1]})
		}
	}
	return out
}

// withBoundaryLoops returns el with isolated vertices appended and a
// self-loop added on the first and last vertex of every non-empty range.
func withBoundaryLoops(el *graph.EdgeList, ranges [][2]int32, isolated int32) *graph.EdgeList {
	out := &graph.EdgeList{N: el.N + isolated, Edges: slices.Clone(el.Edges)}
	for _, r := range ranges {
		if r[0] == r[1] {
			continue
		}
		for _, v := range []int32{r[0], r[1] - 1} {
			id := int32(len(out.Edges))
			out.Edges = append(out.Edges, graph.Edge{U: v, V: v, W: graph.MakeWeight(uint16(id*7919), id)})
		}
	}
	return out
}

// rangeEdges returns the edges of el with an endpoint in [lo, hi), in
// edge order, and how many of them are cut.
func rangeEdges(el *graph.EdgeList, lo, hi int32) ([]graph.Edge, int64) {
	in := func(v int32) bool { return v >= lo && v < hi }
	var edges []graph.Edge
	var cut int64
	for _, e := range el.Edges {
		if in(e.U) || in(e.V) {
			edges = append(edges, e)
			if in(e.U) != in(e.V) {
				cut++
			}
		}
	}
	return edges, cut
}

// referenceLocal builds the view of [lo, hi) the list way: NewLocal over
// the range's ids and edges.
func referenceLocal(t testing.TB, el *graph.EdgeList, lo, hi int32) *Local {
	t.Helper()
	edges, _ := rangeEdges(el, lo, hi)
	ids := make([]int32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		ids = append(ids, v)
	}
	l, err := NewLocal(ids, edges)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// checkGhostSpan checks l's recorded ghost span: GhostLo and GhostHi are
// the least and greatest global id over l's external heads, live or
// retired, and the span is empty (MaxInt32, MinInt32) exactly when l has
// no cut edge.
func checkGhostSpan(t testing.TB, where string, l *Local) {
	t.Helper()
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, h := range l.dst {
		if h < 0 {
			lo, hi = min(lo, ^h), max(hi, ^h)
		}
	}
	if l.GhostLo != lo || l.GhostHi != hi || (lo > hi) != (l.NumCut == 0) {
		t.Fatalf("%s: ghost span [%d, %d] with %d cut edges, want [%d, %d]", where, l.GhostLo, l.GhostHi, l.NumCut, lo, hi)
	}
}

// checkWindow compares NewWindow over [lo, hi) with NewLocal over the
// range's edges: the same ids, edge and cut counts, ghost span
// (checkGhostSpan), and per vertex the same arcs in ascending edge id,
// each head decoding (a local index, or ^global when cut) to the other
// endpoint of its edge.
func checkWindow(t testing.TB, el *graph.EdgeList, lo, hi int32) {
	t.Helper()
	where := fmt.Sprintf("N=%d [%d,%d)", el.N, lo, hi)
	win := NewWindow(el, el.Degrees(), lo, hi)
	ref := referenceLocal(t, el, lo, hi)
	checkGhostSpan(t, where+" window", win)
	checkGhostSpan(t, where+" list", ref)
	edges, cut := rangeEdges(el, lo, hi)
	if win.NumEdges != int64(len(edges)) || ref.NumEdges != int64(len(edges)) {
		t.Fatalf("%s: NumEdges window %d, list %d, want %d", where, win.NumEdges, ref.NumEdges, len(edges))
	}
	if win.NumCut != cut || ref.NumCut != cut {
		t.Fatalf("%s: NumCut window %d, list %d, want %d", where, win.NumCut, ref.NumCut, cut)
	}
	if !slices.Equal(win.IDs, ref.IDs) || win.NumArcs() != ref.NumArcs() {
		t.Fatalf("%s: ids %v / %d arcs, list %v / %d arcs", where, win.IDs, win.NumArcs(), ref.IDs, ref.NumArcs())
	}
	for u := range win.N() {
		dst, w := win.Arcs(u)
		rdst, rw := ref.Arcs(u)
		if !slices.Equal(dst, rdst) || !slices.Equal(w, rw) {
			t.Fatalf("%s: vertex %d arcs %v %v, list %v %v", where, win.IDs[u], dst, w, rdst, rw)
		}
		for a, v := range dst {
			id := graph.EdgeID(w[a])
			if a > 0 && graph.EdgeID(w[a-1]) >= id {
				t.Fatalf("%s: vertex %d arcs not in ascending edge id: %v", where, win.IDs[u], w)
			}
			e := el.Edges[id]
			other := e.V
			if e.V == win.IDs[u] {
				other = e.U
			}
			head := ^v
			if v >= 0 {
				head = win.IDs[v]
			} else if head >= lo && head < hi {
				t.Fatalf("%s: cut head %d of edge %d lies inside the range", where, head, id)
			}
			if head != other || w[a] != e.W {
				t.Fatalf("%s: vertex %d edge %d (%d-%d): head %d weight %d", where, win.IDs[u], id, e.U, e.V, head, w[a])
			}
		}
	}
}

// rangeModes are the kernel configurations checkRunRange compares: every
// exception condition, data-driven and topology-driven, with and without
// contraction, and a Terminator stop after round 2.
func rangeModes() []Options {
	var out []Options
	for _, excpt := range []ExceptionCond{ExcptNone, ExcptBorderVertex, ExcptBorderEdge} {
		for _, dd := range []bool{true, false} {
			for _, contract := range []bool{false, true} {
				out = append(out, Options{Excpt: excpt, DataDriven: dd, Contract: contract})
			}
		}
	}
	stop := DefaultOptions()
	stop.Terminator = func(round int, _ cost.Work, _ int) bool { return round >= 2 }
	return append(out, stop)
}

// checkRunRange checks RunRange over local vertices [a, b) of l against
// Run on sub, the view of that range alone: under every rangeModes
// configuration the Results must be equal, and RangeEdges(a, b) must
// equal sub's NumEdges. All runs share l and sub, so each starts from the
// arcs its predecessor permuted.
func checkRunRange(t testing.TB, where string, l, sub *Local, a, b int) {
	t.Helper()
	if got := l.RangeEdges(a, b); got != sub.NumEdges {
		t.Fatalf("%s: RangeEdges(%d, %d) = %d, the view of the range has %d edges", where, a, b, got, sub.NumEdges)
	}
	for _, opt := range rangeModes() {
		got, want := RunRange(l, a, b, opt), Run(sub, opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RunRange(%d, %d) excpt=%d dd=%v contract=%v stop=%v: %+v, the view of the range gives %+v",
				where, a, b, opt.Excpt, opt.DataDriven, opt.Contract, opt.Terminator != nil, got, want)
		}
	}
}

// checkWindowRange checks RunRange over local vertices [a, b) of the
// window of [lo, hi) against Run on the window of [lo+a, lo+b).
func checkWindowRange(t testing.TB, el *graph.EdgeList, deg []int64, lo, hi int32, a, b int) {
	t.Helper()
	checkRunRange(t, fmt.Sprintf("N=%d [%d,%d)", el.N, lo, hi),
		NewWindow(el, deg, lo, hi), NewWindow(el, deg, lo+int32(a), lo+int32(b)), a, b)
}

// checkLocalRange checks RunRange over a component-graph view: NewLocal
// over scattered ids (every vertex v of el with keep(v), renamed 3v+1)
// and the edges touching them, so edges to the other vertices have ghost
// heads. RunRange over [a, b) of it must match Run on NewLocal over
// ids[a:b] and the edges touching those (checkRunRange), and every view
// built must record its ghost span (checkGhostSpan).
func checkLocalRange(t testing.TB, el *graph.EdgeList, keep func(int32) bool, a, b int) {
	t.Helper()
	name := func(v int32) int32 { return 3*v + 1 }
	var ids []int32
	for v := range el.N {
		if keep(v) {
			ids = append(ids, name(v))
		}
	}
	a, b = min(a, len(ids)), min(b, len(ids))
	if a > b {
		a, b = b, a
	}
	// view is NewLocal over set and the edges of el touching it.
	view := func(set []int32) *Local {
		in := func(c int32) bool { _, ok := slices.BinarySearch(set, c); return ok }
		var edges []graph.Edge
		for _, e := range el.Edges {
			u, v := name(e.U), name(e.V)
			if in(u) || in(v) {
				edges = append(edges, graph.Edge{U: u, V: v, W: e.W})
			}
		}
		l, err := NewLocal(slices.Clone(set), edges)
		if err != nil {
			t.Fatal(err)
		}
		checkGhostSpan(t, fmt.Sprintf("N=%d component view of %d ids", el.N, len(set)), l)
		return l
	}
	checkRunRange(t, fmt.Sprintf("N=%d %d ids", el.N, len(ids)), view(ids), view(ids[a:b]), a, b)
}

// TestNewWindowMatchesNewLocal checks NewWindow against NewLocal over the
// range's edges on messy graphs (hubs, parallel edges, self-loops on
// range boundaries, isolated vertices) for every balanced range, empty
// ranges and [0, n) included, and checks that a kernel run on a range of
// a window or of a component-graph view matches the run on the view of
// that range alone (checkRunRange).
func TestNewWindowMatchesNewLocal(t *testing.T) {
	seed := testutil.Seed(t, 61)
	for _, el := range []*graph.EdgeList{
		messyGraph(300, 2400, seed),
		messyGraph(10, 40, seed+1), // P=16 leaves empty ranges
		gen.Star(50, seed+2),
		{N: 3},
	} {
		ranges := append(windowRanges(el), [2]int32{0, el.N}, [2]int32{el.N / 2, el.N / 2})
		el = withBoundaryLoops(el, ranges, 4)
		ranges = append(ranges, [2]int32{0, el.N}, [2]int32{el.N - 4, el.N})
		deg := el.Degrees()
		for _, r := range ranges {
			checkWindow(t, el, r[0], r[1])
			n := int(r[1] - r[0])
			for _, s := range [][2]int{{0, n}, {0, n / 2}, {n / 3, n}, {n / 2, n / 2}} {
				checkWindowRange(t, el, deg, r[0], r[1], s[0], s[1])
			}
		}
		for _, mod := range []int32{2, 3, 7} {
			keep := func(v int32) bool { return v%mod != 0 }
			for _, s := range [][2]int{{0, 1 << 30}, {0, 1}, {3, 40}, {int(el.N) / 3, int(el.N) / 2}, {5, 5}} {
				checkLocalRange(t, el, keep, s[0], s[1])
			}
		}
	}
}

// TestWindowKernelMatchesList runs the kernel on both views of every
// balanced range under each exception condition, with and without
// contraction: the results must be identical.
func TestWindowKernelMatchesList(t *testing.T) {
	seed := testutil.Seed(t, 67)
	for _, el := range []*graph.EdgeList{
		messyGraph(400, 3200, seed),
		messyGraph(10, 40, seed+1),
	} {
		deg := el.Degrees()
		for _, r := range windowRanges(el) {
			win := NewWindow(el, deg, r[0], r[1])
			ref := referenceLocal(t, el, r[0], r[1])
			for _, excpt := range []ExceptionCond{ExcptNone, ExcptBorderVertex, ExcptBorderEdge} {
				for _, contract := range []bool{false, true} {
					opt := Options{Excpt: excpt, DataDriven: true, Contract: contract}
					got, want := Run(win, opt), Run(ref, opt)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("N=%d [%d,%d) excpt=%d contract=%v: window %+v, list %+v",
							el.N, r[0], r[1], excpt, contract, got, want)
					}
				}
			}
		}
	}
}

// TestWindowArcBytes pins what NewWindow allocates: 12 bytes per arc slot
// (a 4-byte head and an 8-byte packed weight, which also holds the edge
// id), 16 bytes per vertex (IDs, offsets and live ends), and at most one
// page of size-class rounding for each of those five arrays.
func TestWindowArcBytes(t *testing.T) {
	el := gen.WebGraph(1<<12, 40_000, 0.85, 5)
	deg := el.Degrees()
	lo, hi := int32(0), el.N/2
	var slots int64
	for _, d := range deg[lo:hi] {
		slots += d
	}
	const runs, page = 20, 8 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		windowSink = NewWindow(el, deg, lo, hi)
	}
	runtime.ReadMemStats(&after)
	per := int64(after.TotalAlloc-before.TotalAlloc) / runs
	n := int64(hi - lo)
	if limit := 12*slots + 16*n + 8 + 5*page; per > limit {
		t.Fatalf("NewWindow allocated %d B for %d arc slots and %d vertices (%.1f B per slot), want at most %d",
			per, slots, n, float64(per-16*n)/float64(slots), limit)
	}
}

// TestNewWindowBlockEdges checks NewWindow where its listing blocks meet:
// edge lists of windowBlock−1, windowBlock, windowBlock+1 and
// 3·windowBlock+1 edges whose first and last slot of every block hold an
// edge of one kind for the range under test (both endpoints in it, one
// endpoint in it from either side, or a self-loop in it), over random
// filler edges, for every balanced range of the filler.
func TestNewWindowBlockEdges(t *testing.T) {
	seed := testutil.Seed(t, 71)
	const n = 64
	for _, m := range []int{windowBlock - 1, windowBlock, windowBlock + 1, 3*windowBlock + 1} {
		rng := rand.New(rand.NewSource(seed + int64(m)))
		filler := &graph.EdgeList{N: n}
		for range m {
			filler.Edges = append(filler.Edges, graph.Edge{U: rng.Int31n(n), V: rng.Int31n(n)})
		}
		for _, r := range windowRanges(filler) {
			lo, hi := r[0], r[1]
			// in and out pick a vertex inside and outside [lo, hi).
			in := func() int32 { return lo + rng.Int31n(hi-lo) }
			out := func() int32 {
				v := rng.Int31n(n - (hi - lo))
				if v >= lo {
					v += hi - lo
				}
				return v
			}
			kinds := []struct {
				name string
				ends func(first bool) (int32, int32)
			}{
				{"inside", func(bool) (int32, int32) { return lo, hi - 1 }},
				{"cut", func(first bool) (int32, int32) {
					if first {
						return in(), out()
					}
					return out(), in()
				}},
				{"self-loop", func(bool) (int32, int32) { v := in(); return v, v }},
			}
			for _, kind := range kinds {
				if lo == hi || (kind.name == "cut" && hi-lo == n) {
					continue
				}
				el := &graph.EdgeList{N: n, Edges: slices.Clone(filler.Edges)}
				for base := 0; base < m; base += windowBlock {
					for _, i := range []int{base, min(base+windowBlock, m) - 1} {
						el.Edges[i].U, el.Edges[i].V = kind.ends(i == base)
					}
				}
				for i := range el.Edges {
					el.Edges[i].W = graph.MakeWeight(uint16(rng.Intn(1<<16)), int32(i))
				}
				t.Run(fmt.Sprintf("m=%d/[%d,%d)/%s", m, lo, hi, kind.name), func(t *testing.T) {
					checkWindow(t, el, lo, hi)
				})
			}
		}
	}
}

// TestNewWindowAllocs pins NewWindow's allocations at six: the Local and
// its IDs, offsets, heads, weights and live ends. The listing's block
// index lives on the stack, and compacting a self-loop's spare slot
// reslices the arc arrays in place.
func TestNewWindowAllocs(t *testing.T) {
	el := gen.WebGraph(1<<10, 3*windowBlock, 0.85, 5)
	el.Edges = slices.DeleteFunc(el.Edges, func(e graph.Edge) bool { return e.U == e.V })
	loop := &graph.EdgeList{N: el.N, Edges: slices.Clone(el.Edges)}
	loop.Edges = append(loop.Edges, graph.Edge{U: 1, V: 1, W: graph.MakeWeight(7, int32(len(loop.Edges)))})
	for _, g := range []*graph.EdgeList{el, loop} {
		deg := g.Degrees()
		lo, hi := int32(0), g.N/2
		allocs := testing.AllocsPerRun(20, func() { windowSink = NewWindow(g, deg, lo, hi) })
		if allocs != 6 {
			t.Errorf("%d edges, self-loop %v: NewWindow made %v allocations, want 6", len(g.Edges), g == loop, allocs)
		}
	}
}
