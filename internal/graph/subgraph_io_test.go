package graph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestInducedSubgraph(t *testing.T) {
	// Square 0-1-2-3-0 with diagonal 0-2.
	el := &EdgeList{N: 4, Edges: []Edge{
		{U: 0, V: 1, W: MakeWeight(1, 0), ID: 0},
		{U: 1, V: 2, W: MakeWeight(2, 1), ID: 1},
		{U: 2, V: 3, W: MakeWeight(3, 2), ID: 2},
		{U: 3, V: 0, W: MakeWeight(4, 3), ID: 3},
		{U: 0, V: 2, W: MakeWeight(5, 4), ID: 4},
	}}
	g := MustBuildCSR(el)
	sub := InducedSubgraph(g, []int32{0, 2, 3})
	if sub.N != 3 {
		t.Fatalf("N=%d", sub.N)
	}
	// Edges inside {0,2,3}: 2-3, 3-0, 0-2 → 3 edges.
	if len(sub.Edges) != 3 {
		t.Fatalf("edges=%d want 3: %+v", len(sub.Edges), sub.Edges)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleInducedSubgraphBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	el := randomEdgeList(rng, 100, 400)
	g := MustBuildCSR(el)
	for _, frac := range []float64{-0.5, 0, 0.05, 0.5, 1, 2} {
		sub := SampleInducedSubgraph(g, frac, rng)
		if sub.N < 1 || sub.N > g.N {
			t.Fatalf("frac=%f N=%d", frac, sub.N)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("frac=%f: %v", frac, err)
		}
	}
	full := SampleInducedSubgraph(g, 1, rng)
	if int64(len(full.Edges)) != g.M {
		t.Fatalf("full sample has %d edges want %d", len(full.Edges), g.M)
	}
}

func TestIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	el := randomEdgeList(rng, 30, 100)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, el); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != el.N || len(back.Edges) != len(el.Edges) {
		t.Fatalf("size mismatch")
	}
	for i := range el.Edges {
		if el.Edges[i] != back.Edges[i] {
			t.Fatalf("edge %d mismatch: %+v vs %+v", i, el.Edges[i], back.Edges[i])
		}
	}
}

func TestIOFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	el := randomEdgeList(rng, 10, 20)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveEdgeList(path, el); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalWeight() != el.TotalWeight() {
		t.Fatal("weight mismatch after file round trip")
	}
}

func TestIORejectsGarbage(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewReader([]byte("not a graph file"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Correct magic, truncated body.
	var buf bytes.Buffer
	buf.Write(fileMagic[:])
	buf.Write([]byte{1, 0, 0, 0})
	if _, err := ReadEdgeList(&buf); err == nil {
		t.Fatal("truncated file accepted")
	}
}
