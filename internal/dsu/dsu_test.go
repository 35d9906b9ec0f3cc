package dsu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDSUSingletons(t *testing.T) {
	d := New(5)
	if d.Sets() != 5 {
		t.Fatalf("sets=%d", d.Sets())
	}
	for i := int32(0); i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("Find(%d)=%d", i, d.Find(i))
		}
	}
}

func TestDSUUnionFind(t *testing.T) {
	d := New(6)
	if !d.Union(0, 1) {
		t.Fatal("first union failed")
	}
	if d.Union(1, 0) {
		t.Fatal("repeated union reported a merge")
	}
	d.Union(2, 3)
	d.Union(0, 3)
	if !d.Same(1, 2) {
		t.Fatal("1 and 2 should be joined")
	}
	if d.Same(1, 4) {
		t.Fatal("1 and 4 should be separate")
	}
	if d.Sets() != 3 {
		t.Fatalf("sets=%d want 3", d.Sets())
	}
}

func TestDSUChainCompression(t *testing.T) {
	const n = 10000
	d := New(n)
	for i := int32(1); i < n; i++ {
		d.Union(i-1, i)
	}
	if d.Sets() != 1 {
		t.Fatalf("sets=%d", d.Sets())
	}
	root := d.Find(0)
	for i := int32(0); i < n; i++ {
		if d.Find(i) != root {
			t.Fatalf("element %d has root %d want %d", i, d.Find(i), root)
		}
	}
}

// brute is a reference connectivity oracle using component labels.
type brute struct{ label []int }

func newBrute(n int) *brute {
	b := &brute{label: make([]int, n)}
	for i := range b.label {
		b.label[i] = i
	}
	return b
}

func (b *brute) union(x, y int32) {
	lx, ly := b.label[x], b.label[y]
	if lx == ly {
		return
	}
	for i, l := range b.label {
		if l == ly {
			b.label[i] = lx
		}
	}
}

func (b *brute) same(x, y int32) bool { return b.label[x] == b.label[y] }

func TestDSUMatchesBruteForceOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		d := New(n)
		b := newBrute(n)
		for op := 0; op < 200; op++ {
			x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
			if rng.Intn(2) == 0 {
				d.Union(x, y)
				b.union(x, y)
			} else if d.Same(x, y) != b.same(x, y) {
				return false
			}
		}
		// Final full cross-check.
		for x := int32(0); x < int32(n); x++ {
			for y := int32(0); y < int32(n); y++ {
				if d.Same(x, y) != b.same(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
