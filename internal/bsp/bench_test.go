package bsp

import (
	"context"
	"testing"

	"mndmst/internal/gen"
)

func BenchmarkBSPHost(b *testing.B) {
	el := gen.WebGraph(1<<13, 1<<17, 0.85, 5)
	machine := amd()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), el, 8, machine); err != nil {
			b.Fatal(err)
		}
	}
}
