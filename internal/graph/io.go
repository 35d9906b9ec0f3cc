package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
)

// Binary graph container format used by the cmd tools:
//
//	magic   [8]byte  "MNDMSTG1"
//	n       int32    vertex count
//	m       int64    edge count
//	edges   m × {u int32, v int32, w uint64}
//
// Edge ids are implicit positions. All integers little-endian.

var fileMagic = [8]byte{'M', 'N', 'D', 'M', 'S', 'T', 'G', '1'}

// AppendEdge appends e's record to buf: U, V and W, little-endian, in
// EdgeBytes bytes. It is the one edge encoding: .mnd files, Digest and
// the wire payloads all use it.
func AppendEdge(buf []byte, e Edge) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
	return binary.LittleEndian.AppendUint64(buf, e.W)
}

// DecodeEdge decodes the AppendEdge record at the start of rec, which
// holds at least EdgeBytes bytes.
func DecodeEdge(rec []byte) Edge {
	_ = rec[EdgeBytes-1]
	return Edge{
		U: int32(binary.LittleEndian.Uint32(rec)),
		V: int32(binary.LittleEndian.Uint32(rec[4:])),
		W: binary.LittleEndian.Uint64(rec[8:]),
	}
}

// headerBytes is the size of the container header: magic, n and m.
const headerBytes = 8 + 4 + 8

// appendHeader appends the container header of a graph with n vertices
// and m edges to buf.
func appendHeader(buf []byte, n int32, m int) []byte {
	buf = append(buf, fileMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	return binary.LittleEndian.AppendUint64(buf, uint64(m))
}

// writeContainer writes el in the container format to w, in chunks of
// 256 records.
func writeContainer(w io.Writer, el *EdgeList) error {
	buf := appendHeader(make([]byte, 0, headerBytes+256*EdgeBytes), el.N, len(el.Edges))
	for _, e := range el.Edges {
		if len(buf)+EdgeBytes > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = AppendEdge(buf, e)
	}
	_, err := w.Write(buf)
	return err
}

// WriteEdgeList serializes el to w in the binary container format.
func WriteEdgeList(w io.Writer, el *EdgeList) error {
	if err := el.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := writeContainer(bw, el); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses the binary container format from r.
func ReadEdgeList(r io.Reader) (*EdgeList, error) { //lint:testonly decode from a reader of unknown length, which the fuzz and round-trip tests use
	return readEdgeList(r, -1)
}

// readEdgeList decodes the container from r, which holds size bytes (-1:
// unknown). The edge slice is allocated at the header's count only when
// size proves the body is that long, so a corrupt (or hostile) header
// cannot provoke a giant allocation; otherwise it grows from 64 Ki edges.
func readEdgeList(r io.Reader, size int64) (*EdgeList, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr[:8])
	}
	n := int32(binary.LittleEndian.Uint32(hdr[8:]))
	m := int64(binary.LittleEndian.Uint64(hdr[12:]))
	if n < 0 || m < 0 || m > MaxEdges {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d", n, m)
	}
	capacity := min(m, 1<<16)
	if size >= int64(len(hdr))+EdgeBytes*m {
		capacity = m
	}
	el := &EdgeList{N: n, Edges: make([]Edge, 0, capacity)}
	var buf [256 * EdgeBytes]byte
	for i := 0; i < int(m); {
		k := min(int(m)-i, 256)
		if got, err := io.ReadFull(r, buf[:k*EdgeBytes]); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i+got/EdgeBytes, err)
		}
		el.Edges = slices.Grow(el.Edges, k)[:i+k]
		for j := range el.Edges[i:] {
			el.Edges[i+j] = DecodeEdge(buf[j*EdgeBytes:])
		}
		i += k
	}
	if err := el.Validate(); err != nil {
		return nil, err
	}
	return el, nil
}

// SaveEdgeList writes el to the named file.
func SaveEdgeList(path string, el *EdgeList) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, el); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadEdgeList reads an edge list from the named file. A regular file's
// size proves its body's length, so the edge list is allocated once, at
// its exact size.
func LoadEdgeList(path string) (*EdgeList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	return readEdgeList(f, size)
}
