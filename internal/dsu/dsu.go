// Package dsu implements disjoint-set union (union-find) structures.
//
// Two variants are provided: DSU, a sequential structure with path halving
// and union by rank, used by the reference MST algorithms; and Concurrent, a
// lock-free parent array with CAS hooking and path-halving finds, matching the
// component-tracking approach the paper's device Boruvka kernels use on both
// CPU (Galois-style) and GPU.
package dsu

// DSU is a sequential disjoint-set forest with path halving and union by
// rank. Not safe for concurrent use.
type DSU struct {
	parent []int32
	rank   []int8
	sets   int32
}

// New creates a DSU over n singleton elements.
func New(n int) *DSU {
	d := &DSU{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		sets:   int32(n),
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the representative of x's set, compressing the path by
// halving.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets containing a and b. It returns true if they were in
// different sets (i.e. a merge happened).
func (d *DSU) Union(a, b int32) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	d.sets--
	return true
}

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }

// Sets reports the current number of disjoint sets.
func (d *DSU) Sets() int { return int(d.sets) } //lint:testonly set count the DSU tests check against
