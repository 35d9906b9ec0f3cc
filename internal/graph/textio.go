package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// ReadTextEdgeList parses the whitespace-separated edge-list format used
// by SNAP and the University of Florida collection exports:
//
//	# comment lines start with '#' (or '%', as in MatrixMarket headers)
//	<u> <v> [weight]
//
// Vertex ids may be arbitrary non-negative integers; they are compacted to
// a dense [0, n) range in first-appearance order. If a third column is
// present it is used as the 16-bit weight (clamped); otherwise weights are
// drawn from rng. As in the paper's setup, the graph is treated as
// undirected and duplicate/parallel edges are kept (the merge phase
// removes them).
func ReadTextEdgeList(r io.Reader, rng *rand.Rand) (*EdgeList, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	el := &EdgeList{}
	remap := make(map[int64]int32)
	intern := func(raw int64) int32 {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := int32(len(remap))
		remap[raw] = id
		return id
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		var w16 uint16
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: weight: %v", lineNo, err)
			}
			switch {
			case w < 0:
				w16 = 0
			case w > 65535:
				w16 = 65535
			default:
				w16 = uint16(w)
			}
		} else {
			w16 = uint16(rng.Intn(1 << 16))
		}
		id := int32(len(el.Edges))
		if id >= MaxEdges {
			return nil, fmt.Errorf("graph: more than %d edges", MaxEdges)
		}
		el.Edges = append(el.Edges, Edge{U: intern(u), V: intern(v), W: MakeWeight(w16, id)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	el.N = int32(len(remap))
	return el, nil
}

// WriteTextEdgeList emits the SNAP-style format with the 16-bit weight as
// a third column.
func WriteTextEdgeList(w io.Writer, el *EdgeList) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# mndmst edge list: %d vertices, %d edges\n", el.N, len(el.Edges))
	for _, e := range el.Edges {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, WeightRand(e.W)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadTextEdgeList reads a SNAP-style file from disk; weights missing in
// the file are drawn deterministically from the given seed.
func LoadTextEdgeList(path string, seed int64) (*EdgeList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTextEdgeList(f, rand.New(rand.NewSource(seed)))
}
