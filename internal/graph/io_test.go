package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
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

// TestEdgeSize pins an in-memory edge at the 16 bytes of its record, so
// no new field silently grows every edge list back.
func TestEdgeSize(t *testing.T) {
	if size := unsafe.Sizeof(Edge{}); size != EdgeBytes || EdgeBytes != 16 {
		t.Fatalf("Edge is %d bytes (EdgeBytes %d), want 16", size, EdgeBytes)
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadEdgeListBoundsAllocation: a header claiming MaxEdges over a
// short body fails through both readers without allocating more than the
// 64 Ki-edge starting capacity, and a valid file is decoded into one edge
// slice of exactly its edge count.
func TestReadEdgeListBoundsAllocation(t *testing.T) {
	hostile := append([]byte(nil), fileMagic[:]...)
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<20)
	hostile = binary.LittleEndian.AppendUint64(hostile, MaxEdges)
	hostile = append(hostile, make([]byte, 100)...)
	path := filepath.Join(t.TempDir(), "hostile.mnd")
	if err := os.WriteFile(path, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	const bound = uint64((1<<16)*EdgeBytes + 64<<10)
	for name, read := range map[string]func() (*EdgeList, error){
		"ReadEdgeList": func() (*EdgeList, error) { return ReadEdgeList(bytes.NewReader(hostile)) },
		"LoadEdgeList": func() (*EdgeList, error) { return LoadEdgeList(path) },
	} {
		var err error
		if got := allocated(func() { _, err = read() }); got > bound {
			t.Errorf("%s of a hostile header allocated %d bytes, bound %d", name, got, bound)
		}
		if err == nil {
			t.Errorf("%s accepted a header claiming %d edges over a %d-byte body", name, MaxEdges, 100)
		}
	}

	const m = 1 << 17 // twice the starting capacity: growth would show
	rng := rand.New(rand.NewSource(23))
	el := randomEdgeList(rng, 1000, m)
	path = filepath.Join(t.TempDir(), "g.mnd")
	if err := SaveEdgeList(path, el); err != nil {
		t.Fatal(err)
	}
	var back *EdgeList
	var err error
	got := allocated(func() { back, err = LoadEdgeList(path) })
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Edges) != m || cap(back.Edges) != m {
		t.Fatalf("LoadEdgeList: len %d cap %d, want both %d", len(back.Edges), cap(back.Edges), m)
	}
	if limit := uint64(m*EdgeBytes + 64<<10); got > limit {
		t.Fatalf("LoadEdgeList allocated %d bytes for %d edges, want at most %d", got, m, limit)
	}
}
