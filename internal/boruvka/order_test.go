package boruvka

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mndmst/internal/cost"
	"mndmst/internal/graph"
	"mndmst/internal/testutil"
)

// orderOptions lists the option sets the edge-order tests run: every
// exception condition, data-driven and topology-driven, with and without
// Contract, and with and without a Terminator. A Terminator keeps state,
// so each call builds fresh ones.
func orderOptions() []Options {
	var out []Options
	for _, excpt := range []ExceptionCond{ExcptNone, ExcptBorderVertex, ExcptBorderEdge} {
		for _, dd := range []bool{true, false} {
			for _, contract := range []bool{false, true} {
				for _, term := range []bool{false, true} {
					opt := Options{Excpt: excpt, DataDriven: dd, Contract: contract}
					if term {
						opt.Terminator = diminishing()
					}
					out = append(out, opt)
				}
			}
		}
	}
	return out
}

// diminishing returns a Terminator that stops once a round merges fewer
// than two components or scans at least 98 % of the previous round's arcs,
// so it reads both the merges and the work of every round.
func diminishing() func(int, cost.Work, int) bool {
	prev := int64(-1)
	return func(_ int, w cost.Work, merges int) bool {
		stop := merges < 2 || prev >= 0 && 50*w.EdgesScanned >= 49*prev
		prev = w.EdgesScanned
		return stop
	}
}

// checkEdgeOrder runs the kernel under every option set of orderOptions on
// NewLocal(ids, edges) and on NewLocal over a random permutation of the
// same edges, each edge's ends swapped at random, and requires equal
// Results.
func checkEdgeOrder(t *testing.T, rng *rand.Rand, ids []int32, edges []graph.Edge) {
	t.Helper()
	perm := slices.Clone(edges)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for i := range perm {
		if rng.Intn(2) == 0 {
			perm[i].U, perm[i].V = perm[i].V, perm[i].U
		}
	}
	view := func(edges []graph.Edge) *Local {
		l, err := NewLocal(slices.Clone(ids), edges)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	want, got := orderOptions(), orderOptions()
	for i := range want {
		w, g := Run(view(edges), want[i]), Run(view(perm), got[i])
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("options %+v (terminator %v), %d ids, %d edges: permuted edges give\n%+v\nwant %+v",
				want[i], want[i].Terminator != nil, len(ids), len(edges), g, w)
		}
	}
}

// orderGraph draws a view for the edge-order tests: n local vertices with
// spread global ids, m edges with distinct shuffled ids and random weights
// from four values, so most winners are ties in WeightRand decided by the
// packed edge id. An end is external
// (a gap between the local ids, or outside their span) one time in five;
// self-loops and parallel edges occur. With hub set, the first vertex gets
// hubDegree more arcs, to local and external heads alike.
func orderGraph(rng *rand.Rand, n, m int, hub bool) ([]int32, []graph.Edge) {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(3*i + 5)
	}
	end := func() int32 {
		if rng.Intn(5) == 0 {
			return int32(rng.Intn(3*n + 10)) // external unless it hits 5 mod 3
		}
		return ids[rng.Intn(n)]
	}
	if hub {
		m += hubDegree
	}
	eids := rng.Perm(2 * m)[:m]
	edges := make([]graph.Edge, m)
	for i := range edges {
		u, v := ids[rng.Intn(n)], end()
		if i < hubDegree && hub {
			u = ids[0]
		}
		switch rng.Intn(10) {
		case 0:
			v = u // self-loop
		case 1:
			if i > 0 { // parallel to the previous edge
				u, v = edges[i-1].U, edges[i-1].V
			}
		}
		edges[i] = graph.Edge{U: u, V: v, W: graph.MakeWeight(uint16(rng.Intn(4)), int32(eids[i]))}
	}
	return ids, edges
}

// TestRunIgnoresEdgeOrder pins the invariant that lets the merge phase
// hand its edge lists to NewLocal in arrival order: the kernel's Result is
// the same for every order of a view's edges.
func TestRunIgnoresEdgeOrder(t *testing.T) {
	rng := testutil.Rand(t, 31)
	for trial := range 24 {
		n := 1 + rng.Intn(150)
		ids, edges := orderGraph(rng, n, rng.Intn(4*n), trial%8 == 0)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkEdgeOrder(t, rng, ids, edges)
		})
	}
}

// FuzzRunEdgeOrder checks the property of TestRunIgnoresEdgeOrder on views
// drawn by orderGraph from a seed: n local vertices, m edges, and a hub
// when hub is odd.
func FuzzRunEdgeOrder(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(30), uint8(0))
	f.Add(int64(2), uint8(1), uint16(3), uint8(0))
	f.Add(int64(3), uint8(200), uint16(900), uint8(0))
	f.Add(int64(4), uint8(40), uint16(100), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, m uint16, hub uint8) {
		rng := rand.New(rand.NewSource(seed))
		ids, edges := orderGraph(rng, 1+int(n), int(m%2048), hub%2 == 1)
		checkEdgeOrder(t, rng, ids, edges)
	})
}
