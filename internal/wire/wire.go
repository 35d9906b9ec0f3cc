// Package wire provides the compact binary encoding used for all simulated
// network payloads: typed slices serialized little-endian with a length
// prefix. Keeping encoding in one place makes the byte counts the
// communication cost model charges consistent across subsystems.
package wire

import (
	"encoding/binary"
	"fmt"

	"mndmst/internal/graph"
)

// AppendInt32s appends a length-prefixed []int32 to buf.
func AppendInt32s(buf []byte, vals []int32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// TakeInt32s decodes a length-prefixed []int32 from buf, returning the
// values and the remaining bytes.
func TakeInt32s(buf []byte) ([]int32, []byte, error) {
	return TakeInt32sInto(nil, buf)
}

// TakeInt32sInto decodes a length-prefixed []int32 from buf and appends
// the values to dst, growing it at most once. It returns the extended
// slice and the remaining bytes; on error dst is not modified.
func TakeInt32sInto(dst []int32, buf []byte) ([]int32, []byte, error) {
	r := NewReader(buf, nil)
	dst, err := r.Int32sInto(dst)
	if err != nil {
		return nil, nil, err
	}
	return dst, r.cur, nil
}

// AppendUint64s appends a length-prefixed []uint64 to buf.
func AppendUint64s(buf []byte, vals []uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// TakeUint64s decodes a length-prefixed []uint64 from buf.
func TakeUint64s(buf []byte) ([]uint64, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("wire: short buffer for uint64 slice header")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if n > uint64(len(buf))/8 {
		return nil, nil, fmt.Errorf("wire: uint64 slice truncated: want %d values, have %d bytes", n, len(buf))
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
	}
	return vals, buf, nil
}

// EncodeInt32s returns vals as one length-prefixed payload, allocated
// exactly. An empty list still carries its 8-byte prefix.
func EncodeInt32s(vals []int32) []byte {
	return AppendInt32s(make([]byte, 0, 8+4*len(vals)), vals)
}

// DecodeInt32s decodes a payload that is exactly one length-prefixed
// []int32.
func DecodeInt32s(buf []byte) ([]int32, error) {
	vals, rest, err := TakeInt32s(buf)
	return vals, whole(rest, err)
}

// EncodeUint64s returns vals as one length-prefixed payload, allocated
// exactly. An empty list still carries its 8-byte prefix.
func EncodeUint64s(vals []uint64) []byte {
	return AppendUint64s(make([]byte, 0, 8+8*len(vals)), vals)
}

// DecodeUint64s decodes a payload that is exactly one length-prefixed
// []uint64.
func DecodeUint64s(buf []byte) ([]uint64, error) {
	vals, rest, err := TakeUint64s(buf)
	return vals, whole(rest, err)
}

// whole fails a payload decode that left bytes over.
func whole(rest []byte, err error) error {
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("wire: %d trailing bytes after the payload", len(rest))
	}
	return err
}

// AppendBytes appends a length-prefixed raw byte string to buf.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b)))
	return append(buf, b...)
}

// TakeBytes decodes a length-prefixed byte string from buf. The returned
// slice aliases buf.
func TakeBytes(buf []byte) ([]byte, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("wire: short buffer for bytes header")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("wire: byte string truncated: want %d bytes, have %d", n, len(buf))
	}
	return buf[:n:n], buf[n:], nil
}

// AppendUint64 appends one raw uint64.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// TakeUint64 decodes one raw uint64.
func TakeUint64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("wire: short buffer for uint64")
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}

// AppendEdges appends a length-prefixed []graph.Edge to buf, each edge
// as its graph.EdgeBytes record.
func AppendEdges(buf []byte, es []graph.Edge) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(es)))
	for _, e := range es {
		buf = graph.AppendEdge(buf, e)
	}
	return buf
}

// TakeEdgesInto decodes a length-prefixed []graph.Edge from buf and
// appends the edges to dst, growing it at most once. It returns the
// extended slice and the remaining bytes; on error dst is not modified.
func TakeEdgesInto(dst []graph.Edge, buf []byte) ([]graph.Edge, []byte, error) { //lint:testonly the contiguous edge decode the wire fuzzers pin
	r := NewReader(buf, nil)
	dst, err := r.EdgesInto(dst)
	if err != nil {
		return nil, nil, err
	}
	return dst, r.cur, nil
}
