package apps

import (
	"context"
	"testing"

	"mndmst/internal/gen"
	"mndmst/internal/hypar"
)

func BenchmarkBFSHost(b *testing.B) {
	el := gen.WebGraph(1<<13, 1<<17, 0.85, 5)
	machine := amd()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFS(context.Background(), el, 8, machine, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConnectedComponentsHost(b *testing.B) {
	el := gen.WebGraph(1<<13, 1<<17, 0.85, 5)
	machine := amd()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConnectedComponents(context.Background(), el, 8, machine, hypar.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
