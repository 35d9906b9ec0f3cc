// Package hashtable implements the pair-min table (§3.3) the paper's
// multi-edge removal is built on: it keeps the lightest edge between every
// pair of components. It is sharded for parallel updates and counts its
// operations so the device cost models can charge for hash work.
package hashtable

import (
	"sync"
	"sync/atomic"

	"mndmst/internal/graph"
	"mndmst/internal/wire"
)

// PairKey canonically packs an unordered pair of component ids into one
// map key (smaller id in the high half).
type PairKey uint64

// MakePairKey builds the canonical key for the unordered pair {a, b}.
func MakePairKey(a, b int32) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey(uint64(uint32(a))<<32 | uint64(uint32(b)))
}

// Unpack returns the pair (smaller, larger).
func (k PairKey) Unpack() (int32, int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

const pairShards = 64

type pairShard struct {
	mu sync.Mutex
	m  map[PairKey]wire.WEdge
}

// PairMinTable keeps, for every unordered pair of components, the lightest
// edge seen between them — the multi-edge removal table of §3.3. Safe for
// concurrent Update.
type PairMinTable struct {
	shards [pairShards]pairShard
	ops    atomic.Int64
}

// NewPairMinTable creates an empty table.
func NewPairMinTable() *PairMinTable {
	t := &PairMinTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[PairKey]wire.WEdge)
	}
	return t
}

func (t *PairMinTable) shard(k PairKey) *pairShard {
	// Multiplicative fold of both halves: component ids are often small and
	// sequential, so using the raw low bits would hotspot one shard.
	h := uint64(k)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return &t.shards[h%pairShards]
}

// Update offers edge e as a candidate lightest edge between components a
// and b. Returns true if e became the stored minimum. Distinct weights
// make ties impossible within one graph.
func (t *PairMinTable) Update(a, b int32, e wire.WEdge) bool {
	k := MakePairKey(a, b)
	s := t.shard(k)
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		t.ops.Add(1)
	}()
	cur, ok := s.m[k]
	if !ok || graph.WeightLess(e.W, cur.W) {
		s.m[k] = e
		return true
	}
	return false
}

// Edges returns all stored minimum edges (one per component pair) in
// unspecified order.
func (t *PairMinTable) Edges() []wire.WEdge {
	var out []wire.WEdge
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		//lint:sorted every caller sorts the returned slice before it crosses a rank boundary
		for _, e := range s.m {
			out = append(out, e)
		}
		s.mu.Unlock()
	}
	return out
}

// Len reports the number of distinct component pairs stored.
func (t *PairMinTable) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Ops reports the number of hash operations performed, for cost accounting.
func (t *PairMinTable) Ops() int64 { return t.ops.Load() }
