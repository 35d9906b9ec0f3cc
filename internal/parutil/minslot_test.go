package parutil

import (
	"mndmst/internal/testutil"
	"sync"
	"testing"
)

func TestMinSlotEmpty(t *testing.T) {
	var s MinSlot
	s.Reset()
	if s.Load() != NoEdge {
		t.Fatalf("fresh slot holds %d", s.Load())
	}
}

func TestMinSlotSequentialProposals(t *testing.T) {
	keys := []int64{50, 20, 80, 20, 10, 10}
	less := func(a, b int64) bool {
		if keys[a] != keys[b] {
			return keys[a] < keys[b]
		}
		return a < b // deterministic tie break by index
	}
	var s MinSlot
	s.Reset()
	for i := range keys {
		s.Propose(int64(i), less)
	}
	// keys 10 at indices 4 and 5; tie-break picks index 4.
	if got := s.Load(); got != 4 {
		t.Fatalf("winner=%d want 4", got)
	}
}

func TestMinSlotConcurrentProposalsFindGlobalMin(t *testing.T) {
	const n = 100_000
	keys := make([]int64, n)
	rng := testutil.Rand(t, 7)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	less := func(a, b int64) bool {
		if keys[a] != keys[b] {
			return keys[a] < keys[b]
		}
		return a < b
	}
	var s MinSlot
	s.Reset()
	var wg sync.WaitGroup
	const workers = 8
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				s.Propose(int64(i), less)
			}
		}(w)
	}
	wg.Wait()

	best := int64(0)
	for i := int64(1); i < n; i++ {
		if less(i, best) {
			best = i
		}
	}
	if got := s.Load(); got != best {
		t.Fatalf("winner=%d (key %d) want %d (key %d)", got, keys[got], best, keys[best])
	}
}

func TestMinSlotProposeReturn(t *testing.T) {
	keys := map[int64]int64{1: 10, 2: 5, 3: 20}
	less := func(a, b int64) bool { return keys[a] < keys[b] }
	var s MinSlot
	s.Reset()
	if !s.Propose(1, less) {
		t.Fatal("first proposal should win")
	}
	if !s.Propose(2, less) {
		t.Fatal("smaller key should win")
	}
	if s.Propose(3, less) {
		t.Fatal("larger key should lose")
	}
	if !s.Propose(2, less) {
		t.Fatal("re-proposing the winner should report true")
	}
}

func TestNewMinSlotsAndReset(t *testing.T) {
	s := NewMinSlots(1000)
	for i := range s {
		if s[i].Load() != NoEdge {
			t.Fatalf("slot %d not reset", i)
		}
	}
	less := func(a, b int64) bool { return a < b }
	for i := range s {
		s[i].Propose(int64(i), less)
	}
	for i := range s {
		s[i].Reset()
		if s[i].Load() != NoEdge {
			t.Fatalf("slot %d survived Reset", i)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 32000 {
		t.Fatalf("counter=%d want 32000", got)
	}
}
