package hashtable

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mndmst/internal/wire"
)

func TestMakePairKeyCanonical(t *testing.T) {
	f := func(a, b int32) bool {
		k1 := MakePairKey(a, b)
		k2 := MakePairKey(b, a)
		if k1 != k2 {
			return false
		}
		lo, hi := k1.Unpack()
		if a <= b {
			return lo == a && hi == b
		}
		return lo == b && hi == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairMinTableKeepsMinimum(t *testing.T) {
	pt := NewPairMinTable()
	if !pt.Update(1, 2, wire.WEdge{U: 1, V: 2, W: 50, ID: 0}) {
		t.Fatal("first update should install")
	}
	if pt.Update(2, 1, wire.WEdge{U: 2, V: 1, W: 60, ID: 1}) {
		t.Fatal("heavier edge should lose (and pair order must not matter)")
	}
	if !pt.Update(1, 2, wire.WEdge{U: 1, V: 2, W: 40, ID: 2}) {
		t.Fatal("lighter edge should win")
	}
	pt.Update(3, 4, wire.WEdge{U: 3, V: 4, W: 10, ID: 3})
	if pt.Len() != 2 {
		t.Fatalf("len=%d", pt.Len())
	}
	edges := pt.Edges()
	byPair := map[PairKey]wire.WEdge{}
	for _, e := range edges {
		byPair[MakePairKey(e.U, e.V)] = e
	}
	if byPair[MakePairKey(1, 2)].W != 40 {
		t.Fatalf("pair (1,2) kept %d", byPair[MakePairKey(1, 2)].W)
	}
	if pt.Ops() != 4 {
		t.Fatalf("ops=%d", pt.Ops())
	}
}

func TestPairMinTableConcurrentFindsGlobalMinima(t *testing.T) {
	pt := NewPairMinTable()
	const pairs = 100
	const perPair = 500
	type cand struct {
		a, b int32
		w    uint64
	}
	rng := rand.New(rand.NewSource(3))
	var all []cand
	want := map[PairKey]uint64{}
	for p := 0; p < pairs; p++ {
		a, b := int32(rng.Intn(50)), int32(rng.Intn(50))
		for i := 0; i < perPair; i++ {
			w := uint64(rng.Int63n(1 << 40))
			all = append(all, cand{a, b, w})
			k := MakePairKey(a, b)
			if cur, ok := want[k]; !ok || w < cur {
				want[k] = w
			}
		}
	}
	var wg sync.WaitGroup
	const workers = 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += workers {
				c := all[i]
				pt.Update(c.a, c.b, wire.WEdge{U: c.a, V: c.b, W: c.w})
			}
		}(w)
	}
	wg.Wait()
	if pt.Len() != len(want) {
		t.Fatalf("len=%d want %d", pt.Len(), len(want))
	}
	for _, e := range pt.Edges() {
		k := MakePairKey(e.U, e.V)
		if e.W != want[k] {
			t.Fatalf("pair %v kept %d want %d", k, e.W, want[k])
		}
	}
}
