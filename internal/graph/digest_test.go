package graph

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func digestFixture(t *testing.T) *EdgeList {
	t.Helper()
	el := &EdgeList{N: 4}
	for i, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		el.Edges = append(el.Edges, Edge{
			U: e[0], V: e[1], W: MakeWeight(uint16(10*i), int32(i)),
		})
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	return el
}

func TestDigestDeterministic(t *testing.T) {
	a, b := digestFixture(t), digestFixture(t)
	da, db := Digest(a), Digest(b)
	if da != db {
		t.Fatalf("equal graphs digest differently: %s vs %s", da, db)
	}
	if !strings.HasPrefix(da, "sha256:") || len(da) != len("sha256:")+64 {
		t.Fatalf("malformed digest %q", da)
	}
}

func TestDigestSensitive(t *testing.T) {
	base := Digest(digestFixture(t))

	weight := digestFixture(t)
	weight.Edges[2].W = MakeWeight(999, 2)
	if Digest(weight) == base {
		t.Fatal("digest ignored a weight change")
	}

	endpoint := digestFixture(t)
	endpoint.Edges[0].V = 2
	if Digest(endpoint) == base {
		t.Fatal("digest ignored an endpoint change")
	}

	vertices := digestFixture(t)
	vertices.N = 5
	if Digest(vertices) == base {
		t.Fatal("digest ignored a vertex-count change")
	}

	truncated := digestFixture(t)
	truncated.Edges = truncated.Edges[:3]
	if Digest(truncated) == base {
		t.Fatal("digest ignored a dropped edge")
	}
}

// TestDigestSurvivesRoundTrip pins the serving-layer invariant: a graph
// written to a .mnd container and loaded back digests identically, so a
// file-based job and a generator-based job with the same content share
// cache entries.
func TestDigestSurvivesRoundTrip(t *testing.T) {
	el := digestFixture(t)
	path := filepath.Join(t.TempDir(), "g.mnd")
	if err := SaveEdgeList(path, el); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Digest(loaded), Digest(el); got != want {
		t.Fatalf("round-trip digest %s != %s", got, want)
	}
}

// TestDigestPinned pins the digest of the fixture, so a change to the
// record or header encoding cannot move the .mnd format or the serve
// cache keys unnoticed, and checks that the digest is the SHA-256 of the
// bytes WriteEdgeList writes for the same graph.
func TestDigestPinned(t *testing.T) {
	el := digestFixture(t)
	const want = "sha256:8db8ffea56fe78d29451c8b66225c96356703a631c06b395eed9262c556fa3a5"
	if got := Digest(el); got != want {
		t.Fatalf("Digest = %s, want %s", got, want)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, el); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("sha256:%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("SHA-256 of WriteEdgeList's bytes = %s, want %s", got, want)
	}
}
