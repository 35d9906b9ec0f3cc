package merge

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mndmst/internal/boruvka"
	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/testutil"
)

func TestRelabelDropsSelfEdges(t *testing.T) {
	// Local vertices 0..4 with parents 1→0, 2→0, 4→3; 5 is a ghost.
	parent := []int32{0, 0, 0, 3, 3}
	ghost := func(v int32) int32 { return v }
	edges := []graph.Edge{
		{U: 1, V: 2, W: graph.MakeWeight(10, 0)}, // both → 0: self edge
		{U: 1, V: 4, W: graph.MakeWeight(20, 1)}, // 0 - 3
		{U: 0, V: 5, W: graph.MakeWeight(30, 2)}, // 0 - 5
	}
	l, err := boruvka.NewLocal([]int32{0, 1, 2, 3, 4}, edges)
	if err != nil {
		t.Fatal(err)
	}
	kept, w := Relabel(nil, l, parent, ghost)
	// Emitted vertex by vertex: vertex 0's cut edge, then vertex 1's.
	want := []graph.Edge{{U: 0, V: 5, W: graph.MakeWeight(30, 2)}, {U: 0, V: 3, W: graph.MakeWeight(20, 1)}}
	if !slices.Equal(kept, want) {
		t.Fatalf("kept=%+v, want %+v", kept, want)
	}
	if w.HashOps != 2 || w.EdgesScanned != 2 {
		t.Fatalf("work=%+v, want one hash op and one scan per non-self edge", w)
	}
	if l.NumEdges != 3 {
		t.Fatalf("scan covers %d edges, want 3", l.NumEdges)
	}
	// Through one component, ghost included, every edge is a self edge:
	// nil again, even with room in dst.
	if out, w := Relabel(make([]graph.Edge, 0, 4), l, []int32{0, 0, 0, 0, 0}, func(int32) int32 { return 0 }); out != nil || w != (cost.Work{}) {
		t.Fatalf("all self edges gave %#v, %+v; want nil and no work", out, w)
	}
}

// TestRelabelPanicsOnSplitComponent retires the arcs into a star's
// center, as a kernel run that joined the star would, and relabels
// through a parent that splits it: the walk meets more pairs than the
// live arcs bound, which must panic rather than overfill the table.
func TestRelabelPanicsOnSplitComponent(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1, W: graph.MakeWeight(1, 0)},
		{U: 0, V: 2, W: graph.MakeWeight(2, 1)},
		{U: 0, V: 3, W: graph.MakeWeight(3, 2)},
	}
	l, err := boruvka.NewLocal([]int32{0, 1, 2, 3}, edges)
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u < 4; u++ {
		l.Retain(u, func(int32, uint64) bool { return false })
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Relabel through a parent that splits the star did not panic")
		}
	}()
	Relabel(nil, l, []int32{0, 1, 2, 3}, func(v int32) int32 { return v })
}

func TestRemoveMultiEdgesKeepsLightest(t *testing.T) {
	edges := []graph.Edge{
		{U: 5, V: 3, W: graph.MakeWeight(50, 0)}, // pair (3,5)
		{U: 3, V: 5, W: graph.MakeWeight(20, 1)}, // lighter, reversed order
		{U: 3, V: 5, W: graph.MakeWeight(90, 2)},
		{U: 1, V: 2, W: graph.MakeWeight(10, 3)},
	}
	out, w := relabelStream(t, edges)
	// In first-arrival order: (3,5) then (1,2).
	if len(out) != 2 || graph.EdgeID(out[0].W) != 1 || graph.EdgeID(out[1].W) != 3 {
		t.Fatalf("out=%+v", out)
	}
	if out[0].U != 3 || out[0].V != 5 {
		t.Fatalf("endpoints not canonical: %+v", out[0])
	}
	if w.HashOps != 4 || w.EdgesScanned != 4 {
		t.Fatalf("work=%+v, want one hash op and one scan per edge", w)
	}
	// Even with room in dst, no edge gives nil.
	l, parent, ghost := streamView(t, nil)
	if out, w := Relabel(make([]graph.Edge, 0, 4), l, parent, ghost); out != nil || w != (cost.Work{}) {
		t.Fatalf("empty input gave %#v, %+v; want nil and no work", out, w)
	}
}

func TestRemoveMultiEdgesDeterministic(t *testing.T) {
	var in []graph.Edge
	for i := 0; i < 5000; i++ {
		in = append(in, graph.Edge{
			U: int32(i % 50), V: int32((i * 7) % 50),
			W: graph.MakeWeight(uint16(i*2654435761>>10), int32(i)),
		})
	}
	ref := checkStream(t, in)
	for trial := 0; trial < 5; trial++ {
		if got, _ := relabelStream(t, in); !slices.Equal(got, ref) {
			t.Fatalf("trial %d: %d edges %+v, first run %d %+v", trial, len(got), got, len(ref), ref)
		}
	}
}

// TestDedupeByID checks DedupeByID with checkDedupe on a small list, then
// on random lists whose ids are dense (the bitmap) or spread over the whole
// id range below MaxEdges (the set). Each list holds every id of a random set once or
// more, the copies of one id told apart by their endpoints, in random
// order.
func TestDedupeByID(t *testing.T) {
	edges := []graph.Edge{
		{U: 1, V: 2, W: graph.MakeWeight(10, 5)},
		{U: 0, V: 9, W: graph.MakeWeight(3, 2)},
		{U: 2, V: 1, W: graph.MakeWeight(10, 5)}, // the other owner's copy
	}
	out := DedupeByID(slices.Clone(edges))
	if want := edges[:2]; !slices.Equal(out, want) {
		t.Fatalf("out=%+v, want %+v", out, want)
	}
	checkDedupe(t, nil)
	rng := rand.New(rand.NewSource(testutil.Seed(t, 29)))
	for trial := range 200 {
		var edges []graph.Edge
		for range rng.Intn(300) {
			id := rng.Int31n(1000)
			if trial%2 == 1 {
				id = rng.Int31n(graph.MaxEdges)
			}
			for c := range 1 + rng.Intn(3) {
				edges = append(edges, graph.Edge{U: int32(c), V: int32(trial), W: graph.MakeWeight(uint16(rng.Intn(4)), id)})
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		checkDedupe(t, edges)
	}
}

// TestParentTable checks the table over a span at both ends of the int32
// ids: every id is its own parent until Set, Set outside the span is
// skipped, however far outside (uint32(id − lo) wraps), and an empty span
// takes any Set.
func TestParentTable(t *testing.T) {
	for _, lo := range []int32{0, 5, math.MaxInt32 - 3} {
		hi := lo + 3
		pt := NewParentTable(lo, hi)
		for _, id := range []int32{lo - 1, hi + 1, lo - 4, math.MinInt32, math.MaxInt32, -1} {
			if id < lo || id > hi {
				pt.Set(id, 0)
			}
		}
		pt.Set(lo+1, 7)
		pt.Set(hi, lo)
		for id, want := range map[int32]int32{lo: lo, lo + 1: 7, lo + 2: lo + 2, hi: lo} {
			if got := pt.Of(id); got != want {
				t.Fatalf("span [%d,%d]: Of(%d) = %d, want %d", lo, hi, id, got, want)
			}
		}
	}
	empty := NewParentTable(math.MaxInt32, math.MinInt32)
	for _, id := range []int32{math.MinInt32, 0, math.MaxInt32} {
		empty.Set(id, 1)
	}
	if whole := NewParentTable(math.MaxInt32, math.MaxInt32); whole.Of(math.MaxInt32) != math.MaxInt32 {
		t.Fatal("one-id span at MaxInt32 is not the identity")
	}
}

func TestFormGroupsAndNeighbors(t *testing.T) {
	groups := FormGroups([]int{6, 0, 2, 4, 8}, 2)
	if len(groups) != 3 {
		t.Fatalf("groups=%v", groups)
	}
	if groups[0][0] != 0 || groups[0][1] != 2 || groups[2][0] != 8 {
		t.Fatalf("groups=%v", groups)
	}
	if Leader(groups[1]) != 4 {
		t.Fatalf("leader=%d", Leader(groups[1]))
	}
	if g := GroupOf(groups, 6); len(g) != 2 || g[1] != 6 {
		t.Fatalf("GroupOf=%v", g)
	}
	if GroupOf(groups, 99) != nil {
		t.Fatal("phantom rank found")
	}
	sendTo, recvFrom := RingNeighbors([]int{0, 2, 4, 6}, 2)
	if sendTo != 0 || recvFrom != 4 {
		t.Fatalf("ring: send=%d recv=%d", sendTo, recvFrom)
	}
	sendTo, recvFrom = RingNeighbors([]int{0, 2, 4, 6}, 0)
	if sendTo != 6 || recvFrom != 2 {
		t.Fatalf("ring wrap: send=%d recv=%d", sendTo, recvFrom)
	}
}

func TestSplitSegment(t *testing.T) {
	kept, sent := SplitSegment([]int32{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	if len(sent) != 2 || sent[0] != 7 || sent[1] != 8 {
		t.Fatalf("sent=%v", sent)
	}
	if len(kept) != 6 {
		t.Fatalf("kept=%v", kept)
	}
	kept, sent = SplitSegment([]int32{5}, 4)
	if len(sent) != 1 || len(kept) != 0 {
		t.Fatalf("single: kept=%v sent=%v", kept, sent)
	}
	kept, sent = SplitSegment(nil, 4)
	if len(sent) != 0 || len(kept) != 0 {
		t.Fatal("empty split wrong")
	}
}

func TestSplitEdges(t *testing.T) {
	kept := []int32{1, 2}
	sent := []int32{3}
	edges := []graph.Edge{
		{U: 1, V: 2, W: graph.MakeWeight(0, 0)},  // kept only
		{U: 2, V: 3, W: graph.MakeWeight(0, 1)},  // both
		{U: 3, V: 99, W: graph.MakeWeight(0, 2)}, // moved only (other endpoint remote)
		{U: 1, V: 50, W: graph.MakeWeight(0, 3)}, // kept only (other endpoint remote)
		{U: 7, V: 50, W: graph.MakeWeight(0, 4)}, // neither
	}
	k, m := SplitEdges(edges, kept, sent)
	if err := checkSplit(edges, k, m, []int32{0, 1, 3}, []int32{1, 2}, []int32{1}, 1); err != nil {
		t.Fatal(err)
	}
}

// checkSplit checks a SplitEdges result against the ids each list must
// hold, as multisets, and its layout in the storage of edges, the list
// that was split: kept is a prefix of it that keeps its capacity, moved
// the part after the edges kept only and before the nNeither edges in
// neither list, and their overlap is exactly the edges in both.
func checkSplit(edges, kept, moved []graph.Edge, wantKept, wantMoved, wantBoth []int32, nNeither int) error {
	sorted := func(ids []int32) []int32 {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		return ids
	}
	if got, want := sorted(idsOf(kept)), sorted(wantKept); !slices.Equal(got, want) {
		return fmt.Errorf("kept %v, want %v", got, want)
	}
	if got, want := sorted(idsOf(moved)), sorted(wantMoved); !slices.Equal(got, want) {
		return fmt.Errorf("moved %v, want %v", got, want)
	}
	from := len(kept) - len(wantBoth)
	if cap(kept) != cap(edges) || len(edges) > 0 && &kept[:1][0] != &edges[0] {
		return fmt.Errorf("kept (%d of cap %d) is not a prefix of the %d edges of cap %d", len(kept), cap(kept), len(edges), cap(edges))
	}
	if from+len(moved) != len(edges)-nNeither || len(moved) > 0 && &moved[0] != &edges[from] {
		return fmt.Errorf("moved (%d) does not start at %d and end before the %d edges in neither list, of %d", len(moved), from, nNeither, len(edges))
	}
	if got, want := sorted(idsOf(edges[from:len(kept)])), sorted(wantBoth); !slices.Equal(got, want) {
		return fmt.Errorf("kept and moved overlap in %v, want the edges in both, %v", got, want)
	}
	return nil
}

// TestSplitEdgesMatchesSetReference splits random edge lists over random
// owned lists, cut by SplitSegment, and checks SplitEdges against a split
// over map-based sets. Endpoints are owned ids or ghosts below, inside and
// above the owned span; an empty sent list and an empty owned list are
// included.
func TestSplitEdgesMatchesSetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t, 23)))
	set := func(ids []int32) map[int32]bool {
		m := make(map[int32]bool, len(ids))
		for _, c := range ids {
			m[c] = true
		}
		return m
	}
	for trial := range 300 {
		var owned []int32
		for c := int32(50 + rng.Intn(50)); len(owned) < trial%40; c += 1 + int32(rng.Intn(30)) {
			owned = append(owned, c)
		}
		kept, sent := SplitSegment(owned, 2+rng.Intn(4))
		if trial%5 == 0 {
			kept, sent = owned, nil
		}
		span := int32(200)
		if len(owned) > 0 {
			span = owned[len(owned)-1] + 50
		}
		edges := make([]graph.Edge, rng.Intn(80))
		end := func() int32 {
			if len(owned) > 0 && rng.Intn(2) == 0 {
				return owned[rng.Intn(len(owned))]
			}
			return int32(rng.Intn(int(span))) // below, inside or above the span
		}
		for i := range edges {
			edges[i] = graph.Edge{U: end(), V: end(), W: graph.MakeWeight(uint16(rng.Intn(100)), int32(i))}
		}
		keptSet, sentSet := set(kept), set(sent)
		var wantKept, wantMoved, wantBoth []int32
		nNeither := 0
		for _, e := range edges {
			isSent, isKept := sentSet[e.U] || sentSet[e.V], keptSet[e.U] || keptSet[e.V]
			if isSent {
				wantMoved = append(wantMoved, graph.EdgeID(e.W))
			}
			if isKept {
				wantKept = append(wantKept, graph.EdgeID(e.W))
			}
			if isSent && isKept {
				wantBoth = append(wantBoth, graph.EdgeID(e.W))
			}
			if !isSent && !isKept {
				nNeither++
			}
		}
		gotKept, gotMoved := SplitEdges(edges, kept, sent)
		if err := checkSplit(edges, gotKept, gotMoved, wantKept, wantMoved, wantBoth, nNeither); err != nil {
			t.Fatalf("trial %d: kept %v sent %v: %v", trial, kept, sent, err)
		}
	}
}

func idsOf(es []graph.Edge) []int32 {
	out := make([]int32, len(es))
	for i, e := range es {
		out[i] = graph.EdgeID(e.W)
	}
	return out
}

func TestChunkedExchangeAndPayloads(t *testing.T) {
	comm := cost.CommModel{Latency: 1e-6, Bandwidth: 1e9}
	c := cluster.New(3, comm)
	rep, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		active := []int{0, 1, 2}
		local := []Delta{{Old: int32(10 + r.ID()), New: int32(r.ID())}}
		remote, _, err := ExchangeDeltas(r, active, local, 8) // tiny chunks
		if err != nil {
			return err
		}
		if len(remote) != 2 {
			return fmt.Errorf("rank %d: %d remote deltas", r.ID(), len(remote))
		}
		// Remote deltas arrive in ascending sender order.
		wantFirst := int32(10)
		if r.ID() == 0 {
			wantFirst = 11
		}
		if remote[0].Old != wantFirst {
			return fmt.Errorf("rank %d: first delta %+v", r.ID(), remote[0])
		}

		// Payload round trip rank 0 → 1.
		if r.ID() == 0 {
			SendToLeader(r, 1, Payload{
				Comps: []int32{4, 5},
				Edges: []graph.Edge{{U: 4, V: 9, W: graph.MakeWeight(77, 3)}},
			}, 4)
		}
		if r.ID() == 1 {
			p, err := RecvMembers(r, []int{0, 1}, Payload{})
			if err != nil {
				return err
			}
			if len(p.Comps) != 2 || len(p.Edges) != 1 || p.Edges[0] != (graph.Edge{U: 4, V: 9, W: graph.MakeWeight(77, 3)}) {
				return fmt.Errorf("payload %+v", p)
			}
		}

		// Forest gather 2 → 0.
		if r.ID() == 2 {
			SendForest(r, 0, []int32{8, 9, 10}, 0)
		}
		if r.ID() == 0 {
			ids, err := RecvForest(r, 2, nil)
			if err != nil {
				return err
			}
			if len(ids) != 3 || ids[2] != 10 {
				return fmt.Errorf("forest ids=%v", ids)
			}
		}

		// Leader merge 1,2 → 0.
		if r.ID() != 0 {
			SendToLeader(r, 0, Payload{Comps: []int32{int32(r.ID())}}, 0)
		} else {
			p, err := RecvMembers(r, []int{0, 1, 2}, Payload{})
			if err != nil {
				return err
			}
			if !slices.Equal(p.Comps, []int32{1, 2}) {
				return fmt.Errorf("member payloads %+v", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny chunk size must produce multi-phase traffic: more messages than
	// logical transfers.
	if rep.TotalMsgs() < 10 {
		t.Fatalf("msgs=%d; chunking should multiply message count", rep.TotalMsgs())
	}
}

func TestChunkBoundaryProperty(t *testing.T) {
	// Chunked transfers must reassemble exactly for payloads straddling
	// every boundary condition relative to the chunk size.
	comm := cost.CommModel{Latency: 1e-6, Bandwidth: 1e9}
	for _, tc := range []struct {
		payload, chunk int
	}{
		{0, 8}, {1, 8}, {7, 8}, {8, 8}, {9, 8}, {15, 8}, {16, 8}, {17, 8},
		{100, 1}, {5, 1000}, {64, 0 /* default */},
	} {
		c := cluster.New(2, comm)
		_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
			if r.ID() == 0 {
				data := make([]byte, tc.payload)
				for i := range data {
					data[i] = byte(i * 31)
				}
				sendChunked(r, 1, 999, data, tc.chunk)
				return nil
			}
			t, err := recvChunked(r, 0, 999)
			if err != nil {
				return err
			}
			got := joined(t)
			if len(got) != tc.payload {
				return fmt.Errorf("payload %d chunk %d: got %d bytes", tc.payload, tc.chunk, len(got))
			}
			for i := range got {
				if got[i] != byte(i*31) {
					return fmt.Errorf("payload %d chunk %d: byte %d corrupted", tc.payload, tc.chunk, i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecvChunkedRejectsGarbageHeader(t *testing.T) {
	comm := cost.CommModel{Latency: 1e-6, Bandwidth: 1e9}
	c := cluster.New(2, comm)
	_, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		if r.ID() == 0 {
			r.Send(1, 999, []byte{1, 2}) // too short for a count header
			return nil
		}
		if _, err := recvChunked(r, 0, 999); err == nil {
			return fmt.Errorf("garbage header accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
