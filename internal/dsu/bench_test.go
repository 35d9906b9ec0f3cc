package dsu

import (
	"math/rand"
	"testing"
)

func BenchmarkSequentialUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int32, n)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(n)
		for _, p := range pairs {
			d.Union(p[0], p[1])
		}
	}
}

func BenchmarkConcurrentUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int32, n)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewConcurrent(n)
		for _, p := range pairs {
			c.TryUnion(p[0], p[1])
		}
	}
}
