// Package parutil provides the shared-memory parallel building blocks used
// by every kernel in the repository: grained parallel-for over index ranges,
// parallel reductions, and atomic min-slots for lightest-edge selection.
//
// The package deliberately exposes a small, allocation-conscious API. All
// functions are safe for concurrent use unless noted otherwise.
package parutil

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the smallest amount of per-task work worth shipping to
// another goroutine. Ranges shorter than the grain run inline.
const DefaultGrain = 2048

// maxWorkers bounds the number of goroutines any single For call spawns.
var maxWorkers int64 = int64(runtime.GOMAXPROCS(0))

// SetMaxWorkers overrides the worker budget for subsequent parallel calls.
// n < 1 resets to GOMAXPROCS. It returns the previous value.
func SetMaxWorkers(n int) int { //lint:testonly test hook for scheduling independence
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(atomic.SwapInt64(&maxWorkers, int64(n)))
}

// MaxWorkers reports the current worker budget.
func MaxWorkers() int { return int(atomic.LoadInt64(&maxWorkers)) }

// For runs fn over [0, n) in parallel. fn receives half-open chunk bounds
// [lo, hi). grain controls the minimum chunk size; pass 0 for DefaultGrain.
// For blocks until every chunk completes.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	workers := MaxWorkers()
	if workers < 1 {
		workers = 1
	}
	chunks := (n + grain - 1) / grain
	if chunks < workers {
		workers = chunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	// Dynamic scheduling: workers claim chunks from a shared counter so
	// irregular work (e.g. power-law adjacency scans) balances itself.
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := atomic.AddInt64(&next, 1) - 1
				lo := int(c) * grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ReduceInt64 computes the combination of fn over chunks of [0, n).
// fn returns a partial value for its chunk; combine folds two partials.
// identity is returned for n <= 0.
func ReduceInt64(n, grain int, identity int64, fn func(lo, hi int) int64, combine func(a, b int64) int64) int64 {
	if n <= 0 {
		return identity
	}
	var mu sync.Mutex
	acc := identity
	For(n, grain, func(lo, hi int) {
		part := fn(lo, hi)
		mu.Lock()
		acc = combine(acc, part)
		mu.Unlock()
	})
	return acc
}

// SumInt64 sums fn(i) over [0, n) in parallel.
func SumInt64(n, grain int, fn func(i int) int64) int64 {
	return ReduceInt64(n, grain, 0, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += fn(i)
		}
		return s
	}, func(a, b int64) int64 { return a + b })
}

// CountIf counts indices in [0, n) for which pred is true, in parallel.
func CountIf(n, grain int, pred func(i int) bool) int64 {
	return SumInt64(n, grain, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// Iota fills dst with lo, lo+1, ... in parallel.
func Iota(dst []int32, lo int32) {
	For(len(dst), 1<<15, func(a, b int) {
		for i := a; i < b; i++ {
			dst[i] = lo + int32(i)
		}
	})
}
