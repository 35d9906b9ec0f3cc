package parutil

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 5000, 123457} {
		seen := make([]int32, n)
		For(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForNegativeAndZero(t *testing.T) {
	called := false
	For(0, 0, func(lo, hi int) { called = true })
	For(-5, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("For called fn for empty range")
	}
}

func TestForChunkBoundsValid(t *testing.T) {
	n := 10_000
	For(n, 97, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
	})
}

func TestSetMaxWorkers(t *testing.T) {
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers=%d want 1", MaxWorkers())
	}
	// With one worker everything runs inline and still covers the range.
	var count int64
	For(1000, 10, func(lo, hi int) { atomic.AddInt64(&count, int64(hi-lo)) })
	if count != 1000 {
		t.Fatalf("count=%d want 1000", count)
	}
	SetMaxWorkers(0)
	if MaxWorkers() < 1 {
		t.Fatalf("reset MaxWorkers=%d", MaxWorkers())
	}
}

func TestSumInt64MatchesSequential(t *testing.T) {
	f := func(vals []int64) bool {
		var want int64
		for _, v := range vals {
			want += v
		}
		got := SumInt64(len(vals), 3, func(i int) int64 { return vals[i] })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountIf(t *testing.T) {
	n := 1001
	got := CountIf(n, 7, func(i int) bool { return i%3 == 0 })
	var want int64
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestIota(t *testing.T) {
	ids := make([]int32, 70_000)
	Iota(ids, 5)
	for i, v := range ids {
		if v != int32(i)+5 {
			t.Fatalf("ids[%d]=%d", i, v)
		}
	}
}

func TestReduceInt64Identity(t *testing.T) {
	got := ReduceInt64(0, 0, 99, func(lo, hi int) int64 { return 0 }, func(a, b int64) int64 { return a + b })
	if got != 99 {
		t.Fatalf("identity not returned: %d", got)
	}
}

func TestForParallelBranchWithForcedWorkers(t *testing.T) {
	// GOMAXPROCS may be 1 on CI machines; force the multi-worker schedule
	// so the dynamic chunk-claiming path is exercised regardless.
	old := SetMaxWorkers(8)
	defer SetMaxWorkers(old)
	for _, n := range []int{1, 65, 4096, 100_001} {
		seen := make([]int32, n)
		For(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
	// More workers than chunks: capped at chunk count.
	var count int64
	For(10, 5, func(lo, hi int) { atomic.AddInt64(&count, int64(hi-lo)) })
	if count != 10 {
		t.Fatalf("count=%d", count)
	}
}
