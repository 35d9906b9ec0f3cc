package merge

import (
	"cmp"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"mndmst/internal/boruvka"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/testutil"
)

// pairMinReference is the §3.3 pair-min table the way the paper describes
// it: a map from the oriented component pair to its lightest edge, dumped
// and sorted by (U, V).
func pairMinReference(edges []graph.Edge) []graph.Edge {
	best := make(map[[2]int32]graph.Edge)
	for _, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		k := [2]int32{e.U, e.V}
		cur, ok := best[k]
		if !ok || graph.WeightLess(e.W, cur.W) {
			best[k] = e
		}
	}
	var out []graph.Edge
	//lint:sorted sorted by (U, V) below
	for _, e := range best {
		out = append(out, e)
	}
	slices.SortFunc(out, comparePairs)
	return out
}

// comparePairs orders edges by (U, V).
func comparePairs(a, b graph.Edge) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// byPair returns a copy of edges sorted by (U, V).
func byPair(edges []graph.Edge) []graph.Edge {
	edges = slices.Clone(edges)
	slices.SortFunc(edges, comparePairs)
	return edges
}

// relabelReference is Relabel without the table: every non-self
// relabelled edge of l's live arcs, in walk order and as relabelled, not
// oriented.
func relabelReference(l *boruvka.Local, parent []int32, ghost func(int32) int32) []graph.Edge {
	var out []graph.Edge
	for u := range l.N() {
		heads, w := l.Arcs(u)
		for a, v := range heads {
			var pv int32
			switch {
			case v < 0:
				pv = ghost(^v)
			case int(v) > u:
				pv = parent[v]
			default:
				continue
			}
			if parent[u] != pv {
				out = append(out, graph.Edge{U: parent[u], V: pv, W: w[a]})
			}
		}
	}
	return out
}

// checkPairMin checks Relabel's result got and work w against stream, the
// non-self relabelled edges its walk met (relabelReference): as a set, got
// is pairMinReference(stream); got lists the pairs in the order stream
// first meets them; and w charges one hash op and one scan per edge of
// stream.
func checkPairMin(t testing.TB, got []graph.Edge, w cost.Work, stream []graph.Edge) {
	t.Helper()
	bySet := byPair(got)
	if want := pairMinReference(stream); !slices.Equal(bySet, want) {
		t.Fatalf("pairs %+v, want %+v", bySet, want)
	}
	first := make(map[[2]int32]int, len(got))
	for i, e := range stream {
		k := [2]int32{min(e.U, e.V), max(e.U, e.V)}
		if _, ok := first[k]; !ok {
			first[k] = i
		}
	}
	for i := 1; i < len(got); i++ {
		if a, b := first[[2]int32{got[i-1].U, got[i-1].V}], first[[2]int32{got[i].U, got[i].V}]; a >= b {
			t.Fatalf("pair %d first met at %d, after pair %d's %d: not first-arrival order", i-1, a, i, b)
		}
	}
	if n := int64(len(stream)); w.HashOps != n || w.EdgesScanned != n {
		t.Fatalf("work=%+v for %d relabelled edges", w, n)
	}
}

// streamView builds a view plus a parent map whose relabel walk meets the
// component edges in, in order: local vertex i has one cut arc, to the
// ghost len(in)+i, and its parent is in[i].U, while ghost maps the ghost
// to in[i].V. A self pair of in is a self edge.
func streamView(t testing.TB, in []graph.Edge) (*boruvka.Local, []int32, func(int32) int32) {
	t.Helper()
	k := int32(len(in))
	ids := make([]int32, k)
	parent := make([]int32, k)
	arcs := make([]graph.Edge, k)
	for i, e := range in {
		ids[i], parent[i] = int32(i), e.U
		arcs[i] = graph.Edge{U: int32(i), V: k + int32(i), W: e.W}
	}
	l, err := boruvka.NewLocal(ids, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return l, parent, func(g int32) int32 { return in[g-k].V }
}

// relabelStream runs Relabel over streamView(in).
func relabelStream(t testing.TB, in []graph.Edge) ([]graph.Edge, cost.Work) {
	t.Helper()
	l, parent, ghost := streamView(t, in)
	return Relabel(nil, l, parent, ghost)
}

// checkStream runs Relabel over streamView(in), checks it with
// checkPairMin and returns its edges.
func checkStream(t testing.TB, in []graph.Edge) []graph.Edge {
	t.Helper()
	l, parent, ghost := streamView(t, in)
	got, w := Relabel(nil, l, parent, ghost)
	checkPairMin(t, got, w, relabelReference(l, parent, ghost))
	return got
}

// dedupeReference keeps the first copy of every edge id, sorted by id.
func dedupeReference(edges []graph.Edge) []graph.Edge {
	first := make(map[int32]graph.Edge)
	for _, e := range edges {
		if _, ok := first[graph.EdgeID(e.W)]; !ok {
			first[graph.EdgeID(e.W)] = e
		}
	}
	var out []graph.Edge
	//lint:sorted sorted by ID below
	for _, e := range first {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b graph.Edge) int { return cmp.Compare(graph.EdgeID(a.W), graph.EdgeID(b.W)) })
	return out
}

// checkDedupe runs DedupeByID on a copy of in and checks its result:
// sorted by id, it is dedupeReference(in), so it holds every id once, as
// its first copy; it is a subsequence of in, so it keeps their arrival
// order; and it is a prefix of the copy's storage, so it is filtered in
// place.
func checkDedupe(t *testing.T, in []graph.Edge) {
	t.Helper()
	buf := slices.Clone(in)
	got := DedupeByID(buf)
	byID := slices.Clone(got)
	slices.SortStableFunc(byID, func(a, b graph.Edge) int { return cmp.Compare(graph.EdgeID(a.W), graph.EdgeID(b.W)) })
	if want := dedupeReference(in); !slices.Equal(byID, want) {
		t.Fatalf("in %+v: got %+v, by id %+v; want %+v", in, got, byID, want)
	}
	j := 0
	for _, e := range got {
		for j < len(in) && in[j] != e {
			j++
		}
		if j == len(in) {
			t.Fatalf("in %+v: got %+v is not in arrival order", in, got)
		}
		j++
	}
	if len(got) > 0 && &got[0] != &buf[0] {
		t.Fatalf("in %+v: result does not reuse the input's storage", in)
	}
}

// equalWeightEdge builds an edge whose 16-bit weight class is constant, so
// its order is decided entirely by the edge id packed into the low bits.
func equalWeightEdge(u, v, eid int32) graph.Edge {
	return graph.Edge{U: u, V: v, W: graph.MakeWeight(7, eid)}
}

// TestRemoveMultiEdgesAllEqualWeightsOrderIndependent puts every weight in
// one 16-bit class, so only the edge id decides each pair's minimum, and
// presents the candidates in ascending, descending and shuffled id order
// and with flipped orientation: the pairs and their edges must be
// identical every time, in each stream's first-arrival order.
func TestRemoveMultiEdgesAllEqualWeightsOrderIndependent(t *testing.T) {
	rng := testutil.Rand(t, 4001)
	const pairs, perPair = 64, 9
	var cands []graph.Edge
	eid := int32(0)
	for p := int32(0); p < pairs; p++ {
		for c := 0; c < perPair; c++ {
			cands = append(cands, equalWeightEdge(0, p+1, eid))
			eid++
		}
	}
	want := pairMinReference(cands)

	orders := []struct {
		name string
		perm func([]graph.Edge)
	}{
		{"ascending", func([]graph.Edge) {}},
		{"descending", slices.Reverse[[]graph.Edge]},
		{"shuffled", func(s []graph.Edge) {
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		}},
		{"flipped", func(s []graph.Edge) {
			for i := range s {
				if i%2 == 0 {
					s[i].U, s[i].V = s[i].V, s[i].U
				}
			}
		}},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			stream := slices.Clone(cands)
			o.perm(stream)
			got := checkStream(t, stream)
			if bySet := byPair(got); !slices.Equal(bySet, want) {
				t.Fatalf("got %+v\nwant %+v", bySet, want)
			}
		})
	}
}

// TestRemoveMultiEdgesKeepsMinimum offers one pair a first candidate, a
// heavier one in reversed orientation and a lighter one, next to a second
// pair: two records come out, the lighter edge wins its pair, and the work
// charge is one hash op per offer.
func TestRemoveMultiEdgesKeepsMinimum(t *testing.T) {
	in := []graph.Edge{
		{U: 1, V: 2, W: graph.MakeWeight(50, 0)},
		{U: 2, V: 1, W: graph.MakeWeight(60, 1)},
		{U: 1, V: 2, W: graph.MakeWeight(40, 2)},
		{U: 3, V: 4, W: graph.MakeWeight(10, 3)},
	}
	out, w := relabelStream(t, in)
	want := []graph.Edge{
		{U: 1, V: 2, W: graph.MakeWeight(40, 2)},
		{U: 3, V: 4, W: graph.MakeWeight(10, 3)},
	}
	if !slices.Equal(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
	if w.HashOps != 4 {
		t.Fatalf("hash ops=%d, want 4", w.HashOps)
	}
}

// TestRemoveMultiEdgesReversedTieBreak offers one pair its candidates in
// strictly descending and then ascending weight order: the kept edge is
// the total-order least either way.
func TestRemoveMultiEdgesReversedTieBreak(t *testing.T) {
	const k = 16
	var desc, asc []graph.Edge
	for i := int32(0); i < k; i++ {
		desc = append(desc, equalWeightEdge(5, 9, k-1-i))
		asc = append(asc, equalWeightEdge(9, 5, i))
	}
	for _, in := range [][]graph.Edge{desc, asc} {
		out, _ := relabelStream(t, in)
		if len(out) != 1 || out[0] != equalWeightEdge(5, 9, 0) {
			t.Fatalf("kept %+v, want the eid-0 minimum", out)
		}
	}
}

// TestRemoveMultiEdgesOrientationCanonical checks that an edge and its
// reverse come out as the same record, smaller endpoint first, and that
// an edge inside one component does not come out.
func TestRemoveMultiEdgesOrientationCanonical(t *testing.T) {
	f := func(a, b int32) bool {
		x, _ := relabelStream(t, []graph.Edge{{U: a, V: b, W: graph.MakeWeight(1, 0)}})
		y, _ := relabelStream(t, []graph.Edge{{U: b, V: a, W: graph.MakeWeight(1, 0)}})
		if a == b {
			return len(x) == 0 && len(y) == 0
		}
		return len(x) == 1 && x[0] == y[0] && x[0].U == min(a, b) && x[0].V == max(a, b)
	}
	if err := quick.Check(f, testutil.Quick(t, 4003, 0)); err != nil {
		t.Fatal(err)
	}
	if !f(7, 7) {
		t.Fatal("a self edge came out")
	}
}

// TestRemoveMultiEdgesLargeIDsSmallScratch feeds three residual edges of a
// graph with component ids near math.MaxInt32 and edge ids near MaxEdges:
// the pair table follows the edge count, not the ids, so it stays tiny.
func TestRemoveMultiEdgesLargeIDsSmallScratch(t *testing.T) {
	const top, eid = math.MaxInt32, graph.MaxEdges - 1
	in := []graph.Edge{
		{U: top, V: top - 7, W: graph.MakeWeight(3, eid-1)},
		{U: top - 7, V: top, W: graph.MakeWeight(2, eid-2)},
		{U: 0, V: top - 1, W: graph.MakeWeight(1, eid)},
	}
	want := []graph.Edge{
		{U: top - 7, V: top, W: graph.MakeWeight(2, eid-2)},
		{U: 0, V: top - 1, W: graph.MakeWeight(1, eid)},
	}
	l, parent, ghost := streamView(t, in)
	const runs = 100
	buf := make([]graph.Edge, len(in))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		out, _ := Relabel(buf, l, parent, ghost)
		if !slices.Equal(out, want) {
			t.Fatalf("out=%+v, want %+v", out, want)
		}
		DedupeByID(out)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("allocated %d B per call, want < 64 KiB", per)
	}
}

// fuzzEdges decodes 11-byte records (U and V as little-endian int32s, a
// 3-value random weight, an id byte, and a flags byte that narrows or
// widens the ranges) into edges with packed weights, so inputs hit many
// multi-edges, ties in WeightRand broken by the packed id, shared ids,
// negative and huge vertex keys, and edge ids up to MaxEdges.
func fuzzEdges(data []byte) []graph.Edge {
	var out []graph.Edge
	for ; len(data) >= 11; data = data[11:] {
		u := int32(binary.LittleEndian.Uint32(data))
		v := int32(binary.LittleEndian.Uint32(data[4:]))
		if data[10]&1 == 0 {
			u, v = u%8, v%8
		}
		id := int32(data[9])
		if data[10]&2 != 0 {
			id <<= 18
		}
		out = append(out, graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(data[8]%3), id)})
	}
	return out
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789a0123456789a0123456789a"))
	f.Add([]byte{
		0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 2, 9, 1,
		0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 1, 9, 1,
		3, 0, 0, 0, 5, 0, 0, 0, 0, 7, 0,
	})
}

// FuzzRemoveMultiEdges checks Relabel's pair-min table on the relabel
// walk of fuzzEdges' component edges, with checkStream: against the walk
// without the table followed by pairMinReference.
func FuzzRemoveMultiEdges(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStream(t, fuzzEdges(data))
	})
}

// FuzzDedupeByID checks DedupeByID with checkDedupe. fuzzEdges' ids span
// 256 values, which takes the bitmap, or up to 2²⁶ when widened, which
// takes the set.
func FuzzDedupeByID(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDedupe(t, fuzzEdges(data))
	})
}

// applyDeltas is the ghost lookup ParentTable replaced, kept as
// FuzzGhostTable's reference: a map from every delta's old id to its new
// one, and the identity for any other id.
func applyDeltas(ds []Delta) func(int32) int32 {
	m := make(map[int32]int32, len(ds))
	for _, d := range ds {
		m[d.Old] = d.New
	}
	return func(v int32) int32 {
		if p, ok := m[v]; ok {
			return p
		}
		return v
	}
}

// FuzzGhostTable checks that Relabel through a ParentTable over the view's
// ghost span, filled from deltas, equals Relabel through the applyDeltas
// map, and that the two agree on every ghost. Byte 0's bit 0 puts every id
// near math.MaxInt32 (base MaxInt32−87, else 0) and bit 1 folds the local
// parents pairwise. Byte 1 % 12 local ids and byte 2 % 16 edges follow,
// each id base + b % 80. An edge endpoint is a local id for an even byte
// and base + b % 80 for an odd one, so ghosts land below, between and
// above the local ids; an edge with no local endpoint is dropped. The
// remaining byte pairs are deltas: old id base + b % 96 − 8, so some lie
// outside the span or name local vertices, or MinInt32 and MaxInt32 for
// bytes 254 and 255; new id base + b % 80.
func FuzzGhostTable(f *testing.F) {
	// Ghosts 11 and 71 on both sides of local ids 40-42; deltas at both
	// ends of the span, just outside it, on a local id and at the extremes.
	ends := []byte{2, 3, 3, 40, 41, 42, 0, 11, 2, 71, 0, 2, 19, 5, 79, 3, 18, 1, 80, 2, 49, 0, 255, 6, 254, 7}
	f.Add(ends)
	f.Add(append([]byte{3}, ends[1:]...))             // the same near MaxInt32
	f.Add([]byte{0, 2, 1, 1, 2, 0, 2, 9, 4, 10, 1})   // no ghosts
	f.Add([]byte{1, 0, 2, 1, 3, 5, 7, 87, 2, 255, 0}) // no local ids: no view edges
	f.Add([]byte{2, 4, 6, 7, 9, 11, 13, 1, 0, 5, 2, 15, 4, 15, 6, 17, 0, 3, 5, 9, 17, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		flags := data[0]
		base := int32(0)
		if flags&1 != 0 {
			base = math.MaxInt32 - 87
		}
		data = data[1:]
		k, m := int(data[0]%12), int(data[1]%16)
		data = data[2:]
		var ids []int32
		for ; k > 0 && len(data) > 0; k, data = k-1, data[1:] {
			ids = append(ids, base+int32(data[0]%80))
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		end := func(b byte) int32 {
			if b%2 == 0 && len(ids) > 0 {
				return ids[int(b/2)%len(ids)]
			}
			return base + int32(b%80)
		}
		local := func(v int32) bool { _, ok := slices.BinarySearch(ids, v); return ok }
		var edges []graph.Edge
		for ; m > 0 && len(data) >= 2; m, data = m-1, data[2:] {
			e := graph.Edge{U: end(data[0]), V: end(data[1]), W: graph.MakeWeight(uint16(data[0]^data[1]), int32(len(edges)))}
			if local(e.U) || local(e.V) {
				edges = append(edges, e)
			}
		}
		var ds []Delta
		for ; len(data) >= 2; data = data[2:] {
			old := base + int32(data[0]%96) - 8
			switch data[0] {
			case 254:
				old = math.MinInt32
			case 255:
				old = math.MaxInt32
			}
			ds = append(ds, Delta{Old: old, New: base + int32(data[1]%80)})
		}
		l, err := boruvka.NewLocal(slices.Clone(ids), edges)
		if err != nil {
			t.Fatal(err)
		}
		parent := slices.Clone(l.IDs)
		if flags&2 != 0 {
			for i := range parent {
				parent[i] &^= 1
			}
		}
		table := NewParentTable(l.GhostLo, l.GhostHi)
		for _, d := range ds {
			table.Set(d.Old, d.New)
		}
		ref := applyDeltas(ds)
		for u := range l.N() {
			heads, _ := l.Arcs(u)
			for _, h := range heads {
				if g := ^h; h < 0 && table.Of(g) != ref(g) {
					t.Fatalf("ids %v, deltas %v: ghost %d resolves to %d, want %d", ids, ds, g, table.Of(g), ref(g))
				}
			}
		}
		got, gw := Relabel(nil, l, parent, table.Of)
		want, ww := Relabel(nil, l, parent, ref)
		if !slices.Equal(got, want) || gw != ww {
			t.Fatalf("ids %v, edges %v, deltas %v: Relabel %v %+v, want %v %+v", ids, edges, ds, got, gw, want, ww)
		}
	})
}
