package wire

import (
	"slices"
	"testing"

	"mndmst/internal/graph"
)

// readerPayload is one payload of every kind Reader decodes, with the
// byte offset each part starts at:
//
//	[0, 4)    Uint32
//	[4, 12)   Uint64
//	[12, 17)  five bytes to Skip
//	[17, 37)  an int32 list: an 8-byte count and three values
//	[37, 93)  an edge list: an 8-byte count and three 16-byte records
//	[93, 97)  Uint32
func readerPayload() (buf []byte, vals []int32, edges []graph.Edge) {
	vals = []int32{-7, 1 << 30, 42}
	edges = []graph.Edge{
		{U: 1, V: 2, W: graph.MakeWeight(3, 0)},
		{U: -5, V: 1 << 20, W: graph.MakeWeight(65535, 1<<24)},
		{U: 7, V: 7, W: graph.MakeWeight(9, 2)},
	}
	buf = AppendUint64(le32(nil, 0xA1B2C3D4), 0x0102030405060708)
	buf = append(buf, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
	buf = AppendInt32s(buf, vals)
	buf = AppendEdges(buf, edges)
	return le32(buf, 0x0BADF00D), vals, edges
}

// le32 appends v little-endian.
func le32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// splitAt cuts buf at the ascending offsets cuts; a repeated offset makes
// an empty chunk, and 0 or len(buf) an empty first or last one.
func splitAt(buf []byte, cuts []int) [][]byte {
	var chunks [][]byte
	prev := 0
	for _, c := range cuts {
		chunks = append(chunks, buf[prev:c])
		prev = c
	}
	return append(chunks, buf[prev:])
}

// every returns the offsets 0 < k·step < n.
func every(step, n int) []int {
	var cuts []int
	for c := step; c < n; c += step {
		cuts = append(cuts, c)
	}
	return cuts
}

// TestReaderAcrossChunks reads readerPayload split into chunks so that
// every kind of value, Skip included, straddles one or more chunk
// boundaries, with empty chunks between, before and after the data. The
// values must come out as from one chunk, and Len must count down to 0.
func TestReaderAcrossChunks(t *testing.T) {
	buf, vals, edges := readerPayload()
	n := len(buf)
	for _, tc := range []struct {
		name string
		cuts []int
	}{
		{"one chunk", nil},
		{"uint32 straddles", []int{2}},
		{"uint64 straddles", []int{7}},
		{"uint64 over three chunks", []int{6, 9}},
		{"empty chunks at boundaries", []int{4, 4, 12, 12, 12}},
		{"empty first and last chunks", []int{0, n}},
		{"empty chunk inside a value", []int{5, 5}},
		{"skip across boundaries", []int{13, 15, 16}},
		{"skip ends on a boundary", []int{14, 17}},
		{"int32 count and value straddle", []int{20, 27, 34}},
		{"edge count straddles", []int{40}},
		{"edge record straddles", []int{66}},
		{"edge record over four chunks", []int{50, 52, 52, 55, 59}},
		{"trailing uint32 straddles", []int{95}},
		{"one-byte chunks", every(1, n)},
		{"three-byte chunks", every(3, n)},
		{"seventeen-byte chunks", every(17, n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chunks := splitAt(buf, tc.cuts)
			r := NewReader(chunks[0], chunks[1:])
			if r.Len() != n {
				t.Fatalf("Len %d, want %d", r.Len(), n)
			}
			if got := r.Uint32(); got != 0xA1B2C3D4 {
				t.Fatalf("Uint32 %#x", got)
			}
			if got := r.Uint64(); got != 0x0102030405060708 {
				t.Fatalf("Uint64 %#x", got)
			}
			r.Skip(5)
			if r.Len() != n-17 {
				t.Fatalf("after Skip, Len %d, want %d", r.Len(), n-17)
			}
			prefix := []int32{99}
			gotVals, err := r.Int32sInto(prefix)
			if err != nil || !slices.Equal(gotVals, append([]int32{99}, vals...)) {
				t.Fatalf("Int32sInto %v, %v; want %v after 99", gotVals, err, vals)
			}
			gotEdges, err := r.EdgesInto(nil)
			if err != nil || !slices.Equal(gotEdges, edges) {
				t.Fatalf("EdgesInto %v, %v; want %v", gotEdges, err, edges)
			}
			if got := r.Uint32(); got != 0x0BADF00D {
				t.Fatalf("trailing Uint32 %#x", got)
			}
			if r.Len() != 0 {
				t.Fatalf("%d bytes left", r.Len())
			}
		})
	}
}

// TestReaderTruncatedAcrossChunks cuts readerPayload short inside each
// list, split into two-byte chunks: the list decoder must fail, not read
// past the end.
func TestReaderTruncatedAcrossChunks(t *testing.T) {
	buf, _, _ := readerPayload()
	for _, tc := range []struct {
		name string
		end  int
		read func(r *Reader) error
	}{
		{"int32 header", 21, func(r *Reader) error { _, err := r.Int32sInto(nil); return err }},
		{"int32 values", 33, func(r *Reader) error { _, err := r.Int32sInto(nil); return err }},
		{"edge header", 41, func(r *Reader) error { _, err := r.EdgesInto(nil); return err }},
		{"edge records", 90, func(r *Reader) error { _, err := r.EdgesInto(nil); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			short := buf[:tc.end]
			chunks := splitAt(short, every(2, len(short)))
			r := NewReader(chunks[0], chunks[1:])
			skip := 17
			if tc.end > 37 {
				skip = 37
			}
			r.Skip(skip)
			if err := tc.read(&r); err == nil {
				t.Fatalf("a payload cut at %d decoded", tc.end)
			}
		})
	}
}
