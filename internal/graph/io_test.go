package graph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

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
