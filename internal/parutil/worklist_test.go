package parutil

import (
	"sort"
	"sync"
	"testing"
)

func TestWorklistSeedAndItems(t *testing.T) {
	w := NewWorklist(10)
	w.Seed([]int32{3, 1, 4})
	if w.Len() != 3 {
		t.Fatalf("len=%d", w.Len())
	}
	got := w.Items()
	want := []int32{3, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("items=%v want %v", got, want)
		}
	}
}

func TestWorklistSeedGrows(t *testing.T) {
	w := NewWorklist(2)
	big := make([]int32, 100)
	for i := range big {
		big[i] = int32(i)
	}
	w.Seed(big)
	if w.Len() != 100 {
		t.Fatalf("len=%d", w.Len())
	}
	// Next buffer must have grown too, so a full round of pushes fits.
	for _, v := range w.Items() {
		w.Push(v)
	}
	if n := w.Swap(); n != 100 {
		t.Fatalf("swap=%d", n)
	}
}

func TestWorklistPushSwapRounds(t *testing.T) {
	w := NewWorklist(100)
	items := make([]int32, 100)
	for i := range items {
		items[i] = int32(i)
	}
	w.Seed(items)
	// Simulate three rounds of halving the frontier.
	for round := 0; round < 3; round++ {
		items := w.Items()
		for _, v := range items {
			if v%2 == 0 {
				w.Push(v / 2)
			}
		}
		w.Swap()
	}
	if w.Len() == 0 {
		t.Fatal("expected surviving items")
	}
}

func TestWorklistConcurrentPush(t *testing.T) {
	const n = 50_000
	w := NewWorklist(n)
	var wg sync.WaitGroup
	const workers = 8
	wg.Add(workers)
	for p := 0; p < workers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += workers {
				w.Push(int32(i))
			}
		}(p)
	}
	wg.Wait()
	if got := w.Swap(); got != n {
		t.Fatalf("swap=%d want %d", got, n)
	}
	items := append([]int32(nil), w.Items()...)
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for i, v := range items {
		if v != int32(i) {
			t.Fatalf("missing or duplicated item at %d: %d", i, v)
		}
	}
}
