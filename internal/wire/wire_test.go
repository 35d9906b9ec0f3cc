package wire

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"mndmst/internal/graph"
	"mndmst/internal/testutil"
)

func TestInt32sRoundTrip(t *testing.T) {
	f := func(vals []int32) bool {
		buf := AppendInt32s([]byte{0xAA}, vals) // leading junk byte preserved
		got, rest, err := TakeInt32s(buf[1:])
		if err != nil || len(rest) != 0 || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestUint64sRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		buf := AppendUint64s(nil, vals)
		got, rest, err := TakeUint64s(buf)
		if err != nil || len(rest) != 0 || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 1, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	es := []graph.Edge{
		{U: 1, V: 2, W: graph.MakeWeight(54321, 7)},
		{U: -1, V: 0, W: graph.MakeWeight(0, graph.MaxEdges-1)},
	}
	buf := AppendEdges(nil, es)
	got, rest, err := TakeEdgesInto(nil, buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("err=%v rest=%d", err, len(rest))
	}
	if !slices.Equal(got, es) {
		t.Fatalf("decoded %+v, want %+v", got, es)
	}
}

// TestEdgeSize pins the one edge record: an edge is graph.EdgeBytes = 16
// bytes in memory, on the wire and in a .mnd file, whose records follow
// its 20-byte header.
func TestEdgeSize(t *testing.T) {
	if got := unsafe.Sizeof(graph.Edge{}); got != 16 || graph.EdgeBytes != 16 {
		t.Fatalf("in-memory edge is %d bytes, graph.EdgeBytes = %d; want 16", got, graph.EdgeBytes)
	}
	if got := len(AppendEdges(nil, []graph.Edge{{}})) - 8; got != 16 {
		t.Fatalf("a wire edge encodes to %d bytes, want 16", got)
	}
	el := &graph.EdgeList{N: 2, Edges: []graph.Edge{{U: 0, V: 1, W: graph.MakeWeight(3, 0)}}}
	var one, two bytes.Buffer
	if err := graph.WriteEdgeList(&one, el); err != nil {
		t.Fatal(err)
	}
	el.Edges = append(el.Edges, graph.Edge{U: 1, V: 0, W: graph.MakeWeight(4, 1)})
	if err := graph.WriteEdgeList(&two, el); err != nil {
		t.Fatal(err)
	}
	if got := two.Len() - one.Len(); got != 16 {
		t.Fatalf("a .mnd record is %d bytes, want 16", got)
	}
	if rec := two.Bytes()[one.Len():]; !bytes.Equal(rec, AppendEdges(nil, el.Edges[1:])[8:]) {
		t.Fatalf(".mnd record %x differs from the wire record", rec)
	}
}

func TestConcatenatedSections(t *testing.T) {
	buf := AppendInt32s(nil, []int32{1, 2})
	buf = AppendUint64(buf, 99)
	buf = AppendEdges(buf, []graph.Edge{{U: 3, V: 4, W: graph.MakeWeight(5, 6)}})
	buf = AppendUint64s(buf, []uint64{7})

	ints, buf, err := TakeInt32s(buf)
	if err != nil || len(ints) != 2 {
		t.Fatalf("ints=%v err=%v", ints, err)
	}
	v, buf, err := TakeUint64(buf)
	if err != nil || v != 99 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	es, buf, err := TakeEdgesInto(nil, buf)
	if err != nil || len(es) != 1 || es[0].W != graph.MakeWeight(5, 6) || graph.EdgeID(es[0].W) != 6 {
		t.Fatalf("es=%v err=%v", es, err)
	}
	u64s, buf, err := TakeUint64s(buf)
	if err != nil || len(u64s) != 1 || u64s[0] != 7 || len(buf) != 0 {
		t.Fatalf("u64s=%v err=%v rest=%d", u64s, err, len(buf))
	}
}

func TestTruncatedBuffersRejected(t *testing.T) {
	full := AppendInt32s(nil, []int32{1, 2, 3})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := TakeInt32s(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	fullE := AppendEdges(nil, []graph.Edge{{U: 1, V: 2, W: graph.MakeWeight(3, 4)}})
	if _, _, err := TakeEdgesInto(nil, fullE[:len(fullE)-1]); err == nil {
		t.Fatal("truncated edges accepted")
	}
	if _, _, err := TakeUint64(nil); err == nil {
		t.Fatal("empty uint64 accepted")
	}
	if _, _, err := TakeUint64s([]byte{1, 2}); err == nil {
		t.Fatal("short uint64s accepted")
	}
}

// TestWholePayloads pins the payload codecs: a round trip, an exactly
// sized encoding with the length prefix kept for an empty list, and a
// decode that rejects a truncated payload or trailing bytes.
func TestWholePayloads(t *testing.T) {
	i32 := []int32{-1, 0, 7}
	u64 := []uint64{1 << 40, 3}
	for _, tc := range []struct {
		name   string
		buf    []byte
		size   int
		decode func([]byte) error
	}{
		{"int32s", EncodeInt32s(i32), 8 + 4*len(i32), func(b []byte) error {
			got, err := DecodeInt32s(b)
			if err == nil && !slices.Equal(got, i32) {
				t.Errorf("int32s decoded to %v", got)
			}
			return err
		}},
		{"uint64s", EncodeUint64s(u64), 8 + 8*len(u64), func(b []byte) error {
			got, err := DecodeUint64s(b)
			if err == nil && !slices.Equal(got, u64) {
				t.Errorf("uint64s decoded to %v", got)
			}
			return err
		}},
	} {
		if len(tc.buf) != tc.size || cap(tc.buf) != tc.size {
			t.Errorf("%s: encoded to len %d cap %d, want %d", tc.name, len(tc.buf), cap(tc.buf), tc.size)
		}
		if err := tc.decode(tc.buf); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if err := tc.decode(tc.buf[:tc.size-1]); err == nil {
			t.Errorf("%s: truncated payload accepted", tc.name)
		}
		if err := tc.decode(append(tc.buf, 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", tc.name)
		}
	}
	if len(EncodeInt32s(nil)) != 8 || len(EncodeUint64s(nil)) != 8 {
		t.Error("an empty list lost its length prefix")
	}
	if got, err := DecodeInt32s(EncodeInt32s(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty int32s decoded to %v, %v", got, err)
	}
}
