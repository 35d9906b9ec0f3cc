package graph

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzReadEdgeList exercises the binary container parser with arbitrary
// bytes, from a reader and from a file: it must never panic, both paths
// must agree, and anything it accepts must validate and round-trip.
func FuzzReadEdgeList(f *testing.F) {
	good := &EdgeList{N: 3, Edges: []Edge{
		{U: 0, V: 1, W: MakeWeight(1, 0)},
		{U: 1, V: 2, W: MakeWeight(2, 1)},
	}}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, good); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("MNDMSTG1"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		el, err := ReadEdgeList(bytes.NewReader(data))
		path := filepath.Join(t.TempDir(), "g.mnd")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, fileErr := LoadEdgeList(path)
		if (err == nil) != (fileErr == nil) {
			t.Fatalf("reader and file disagree: %v vs %v", err, fileErr)
		}
		if err != nil {
			return
		}
		if fromFile.N != el.N || !slices.Equal(fromFile.Edges, el.Edges) {
			t.Fatal("reader and file decode different graphs")
		}
		if err := el.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		var out bytes.Buffer
		if err := WriteEdgeList(&out, el); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadEdgeList(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.N != el.N || !slices.Equal(back.Edges, el.Edges) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzReadTextEdgeList exercises the SNAP-format parser.
func FuzzReadTextEdgeList(f *testing.F) {
	f.Add("0 1 5\n1 2\n# comment\n")
	f.Add("")
	f.Add("a b c")
	f.Add("999999999999999999999 0")
	f.Add("0 1 1e300")
	f.Fuzz(func(t *testing.T, s string) {
		el, err := ReadTextEdgeList(bytes.NewReader([]byte(s)), rand.New(rand.NewSource(1)))
		if err != nil {
			return
		}
		if err := el.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}
