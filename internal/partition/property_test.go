package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mndmst/internal/testutil"
)

// Property suite for the 1D partitioner: edge-balanced cuts must assign
// every vertex to exactly one rank (whole-vertex boundaries — a vertex's
// owned range is never split between ranks).

// checkWholeVertexCover asserts bounds is a monotone whole-vertex cover of
// [0, n): b[0]=0, b[p]=n, nondecreasing, and OwnerOf places every vertex
// in exactly the one interval containing it.
func checkWholeVertexCover(bounds []int32, n int) bool {
	p := len(bounds) - 1
	if bounds[0] != 0 || bounds[p] != int32(n) {
		return false
	}
	for i := 1; i <= p; i++ {
		if bounds[i] < bounds[i-1] {
			return false
		}
	}
	var owned int64
	for i := 0; i < p; i++ {
		owned += int64(bounds[i+1] - bounds[i])
	}
	if owned != int64(n) {
		return false
	}
	for v := int32(0); v < int32(n); v++ {
		o := OwnerOf(bounds, v)
		if o < 0 || o >= p || v < bounds[o] || v >= bounds[o+1] {
			return false
		}
	}
	return true
}

// TestBalancedBoundsNeverSplitVertex drives BalancedBounds with random
// degree vectors (including hubs, zeros, and empty tails) across random
// rank counts: the cut is always a whole-vertex contiguous cover.
func TestBalancedBoundsNeverSplitVertex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		deg := make([]int64, n)
		for i := range deg {
			switch rng.Intn(4) {
			case 0:
				deg[i] = 0 // isolated vertex
			case 1:
				deg[i] = int64(1 + rng.Intn(8))
			case 2:
				deg[i] = int64(rng.Intn(100))
			default:
				deg[i] = int64(rng.Intn(10_000)) // hub
			}
		}
		p := 1 + rng.Intn(16)
		return checkWholeVertexCover(BalancedBounds(deg, p), n)
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 100)); err != nil {
		t.Fatal(err)
	}
}

// balancedBoundsPerVertex is the reference for BalancedBounds: it
// evaluates partition next-1's share for every vertex.
func balancedBoundsPerVertex(degrees []int64, p int) []int32 {
	n := len(degrees)
	var total int64
	for _, d := range degrees {
		total += d
	}
	bounds := make([]int32, p+1)
	bounds[p] = int32(n)
	var run int64
	next := 1
	for v := 0; v < n && next < p; v++ {
		run += degrees[v]
		for next < p && run >= total*int64(next)/int64(p) {
			bounds[next] = int32(v + 1)
			next++
		}
	}
	for ; next < p; next++ {
		bounds[next] = int32(n)
	}
	return bounds
}

// TestBalancedBoundsMatchesPerVertexShare checks that BalancedBounds,
// which computes each share once, cuts exactly where the per-vertex
// evaluation does, on random degree vectors with zeros, hubs, all-zero
// vectors, empty vectors and more ranks than vertices.
func TestBalancedBoundsMatchesPerVertexShare(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(64)
		deg := make([]int64, n)
		zeros := rng.Intn(3) == 0
		for i := range deg {
			switch {
			case zeros || rng.Intn(3) == 0:
				deg[i] = 0
			case rng.Intn(8) == 0:
				deg[i] = int64(rng.Intn(1 << 20)) // hub
			default:
				deg[i] = int64(1 + rng.Intn(10))
			}
		}
		p := 1 + rng.Intn(2*n+2) // p > n in about half the cases
		return slices.Equal(BalancedBounds(deg, p), balancedBoundsPerVertex(deg, p))
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 500)); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedBoundsNeverSplitVertex extends the invariant to the
// heterogeneous-speed cut, including degenerate (zero/negative) weights.
func TestWeightedBoundsNeverSplitVertex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		deg := make([]int64, n)
		for i := range deg {
			deg[i] = int64(rng.Intn(50))
		}
		p := 1 + rng.Intn(8)
		weights := make([]float64, p)
		for i := range weights {
			switch rng.Intn(3) {
			case 0:
				weights[i] = 0 // defaulted to 1 by WeightedBounds
			default:
				weights[i] = 0.25 + 4*rng.Float64()
			}
		}
		return checkWholeVertexCover(WeightedBounds(deg, weights), n)
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 100)); err != nil {
		t.Fatal(err)
	}
}
