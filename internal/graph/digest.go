package graph

import (
	"crypto/sha256"
	"encoding/hex"
)

// Digest returns the content digest of an edge list: a SHA-256 over its
// binary container encoding, the bytes WriteEdgeList writes (magic,
// vertex count, edge count, then every edge's record in order). Two edge
// lists have equal digests exactly when they describe the same graph with
// the same edge ordering and weights, regardless of how they were
// obtained — generated, loaded from a .mnd container, or parsed from
// text. The serve layer keys its graph and result caches by this digest.
func Digest(el *EdgeList) string {
	h := sha256.New()
	writeContainer(h, el) // a hash.Hash never fails a Write
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
