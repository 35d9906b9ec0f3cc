package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mndmst/internal/graph"
)

// Reader decodes one payload held as a list of chunks, reading them in
// order as if they were joined, without joining them. A value that
// straddles a chunk boundary, which at one-byte chunks may span several,
// is gathered into a stack array; every other one is read straight from
// its chunk. The list decoders check each count against the bytes that
// remain before they size anything; TakeInt32sInto and TakeEdgesInto are
// their one-chunk form.
type Reader struct {
	cur     []byte   // the unread part of the current chunk
	more    [][]byte // the chunks after cur
	moreLen int      // the bytes in more
}

// NewReader returns a Reader over first followed by the chunks of more.
func NewReader(first []byte, more [][]byte) Reader {
	r := Reader{cur: first, more: more}
	for _, c := range more {
		r.moreLen += len(c)
	}
	return r
}

// Len reports the bytes not yet read.
func (r *Reader) Len() int { return len(r.cur) + r.moreLen }

// next makes the following chunk current; one must remain.
func (r *Reader) next() {
	r.cur, r.more = r.more[0], r.more[1:]
	r.moreLen -= len(r.cur)
}

// Skip discards the next n bytes; n must not exceed Len.
func (r *Reader) Skip(n int) {
	for n > len(r.cur) {
		n -= len(r.cur)
		r.next()
	}
	r.cur = r.cur[n:]
}

// gather fills rec with the next len(rec) bytes, across chunk boundaries;
// Len must be at least len(rec).
func (r *Reader) gather(rec []byte) {
	for n := 0; n < len(rec); {
		for len(r.cur) == 0 {
			r.next()
		}
		c := copy(rec[n:], r.cur)
		r.cur = r.cur[c:]
		n += c
	}
}

// Uint32 reads the next four bytes, little-endian; Len must be at least 4.
func (r *Reader) Uint32() uint32 {
	if len(r.cur) >= 4 {
		v := binary.LittleEndian.Uint32(r.cur)
		r.cur = r.cur[4:]
		return v
	}
	var rec [4]byte
	r.gather(rec[:])
	return binary.LittleEndian.Uint32(rec[:])
}

// Uint64 reads the next eight bytes, little-endian; Len must be at least 8.
func (r *Reader) Uint64() uint64 {
	if len(r.cur) >= 8 {
		v := binary.LittleEndian.Uint64(r.cur)
		r.cur = r.cur[8:]
		return v
	}
	var rec [8]byte
	r.gather(rec[:])
	return binary.LittleEndian.Uint64(rec[:])
}

// count reads a list's length prefix and checks it against the bytes that
// remain, size bytes per value. Dividing rather than multiplying keeps a
// hostile count from overflowing.
func (r *Reader) count(size int, list, unit string) (int, error) {
	if r.Len() < 8 {
		return 0, fmt.Errorf("wire: short buffer for %s header", list)
	}
	n := r.Uint64()
	if n > uint64(r.Len()/size) {
		return 0, fmt.Errorf("wire: %s truncated: want %d %s, have %d bytes", list, n, unit, r.Len())
	}
	return int(n), nil
}

// Int32sInto decodes a length-prefixed []int32 and appends the values to
// dst, growing it at most once. On error dst is not modified and nil is
// returned.
func (r *Reader) Int32sInto(dst []int32) ([]int32, error) {
	n, err := r.count(4, "int32 slice", "values")
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	for i := start; i < len(dst); {
		k := min(len(r.cur)/4, len(dst)-i)
		for j := range k {
			dst[i+j] = int32(binary.LittleEndian.Uint32(r.cur[4*j:]))
		}
		r.cur = r.cur[4*k:]
		if i += k; i < len(dst) {
			dst[i] = int32(r.Uint32())
			i++
		}
	}
	return dst, nil
}

// EdgesInto decodes a length-prefixed []graph.Edge and appends the edges
// to dst, growing it at most once. On error dst is not modified and nil
// is returned.
func (r *Reader) EdgesInto(dst []graph.Edge) ([]graph.Edge, error) {
	n, err := r.count(graph.EdgeBytes, "edge slice", "edges")
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	for i := start; i < len(dst); {
		k := min(len(r.cur)/graph.EdgeBytes, len(dst)-i)
		for j := range k {
			dst[i+j] = graph.DecodeEdge(r.cur[graph.EdgeBytes*j:])
		}
		r.cur = r.cur[graph.EdgeBytes*k:]
		if i += k; i < len(dst) {
			var rec [graph.EdgeBytes]byte
			r.gather(rec[:])
			dst[i] = graph.DecodeEdge(rec[:])
			i++
		}
	}
	return dst, nil
}
