package dsu

import (
	"sync/atomic"

	"mndmst/internal/parutil"
)

// Concurrent is a lock-free disjoint-set forest over int32 elements. Find
// performs wait-free path reads with best-effort compression via CAS;
// Hook attaches one root under another with CAS, the primitive GPU Boruvka
// implementations use for component merging. After a round of hooks the
// kernels of §3.5 collapse each merged tree to depth one with SetParent.
//
// The parents are a plain []int32 read and swapped through sync/atomic.
// NewConcurrent and SetParent write them with plain stores, which cost no
// locked instruction; the contract that makes that safe is on each.
type Concurrent struct {
	parent []int32
}

// NewConcurrent creates a concurrent DSU over n singleton elements. It
// fills the parents with plain stores, so the DSU must not be shared
// before NewConcurrent returns.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{parent: make([]int32, n)}
	parutil.Iota(c.parent, 0)
	return c
}

// Find returns the current root of x. Concurrent hooks may move the root;
// callers that need a stable answer synchronize externally (the kernels
// call Find only between phases or idempotently).
func (c *Concurrent) Find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&c.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&c.parent[p])
		if gp == p {
			return p
		}
		// Path halving: splice x up one level; harmless if it races.
		atomic.CompareAndSwapInt32(&c.parent[x], p, gp)
		x = gp
	}
}

// Hook makes root a child of under, succeeding only if a is still a root.
// Returns true on success. Symmetry breaking (e.g. only hooking the larger
// root under the smaller) is the caller's responsibility.
func (c *Concurrent) Hook(a, under int32) bool {
	return atomic.CompareAndSwapInt32(&c.parent[a], a, under)
}

// TryUnion merges the sets of a and b lock-free, retrying through races. It
// returns the surviving root and true if a merge happened, or the common
// root and false if they were already joined. Roots are ordered so the
// smaller id wins, giving deterministic representatives.
func (c *Concurrent) TryUnion(a, b int32) (root int32, merged bool) {
	for {
		ra, rb := c.Find(a), c.Find(b)
		if ra == rb {
			return ra, false
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		if c.Hook(rb, ra) {
			return ra, true
		}
	}
}

// Parent returns the current parent pointer of x (not necessarily the
// root).
func (c *Concurrent) Parent(x int32) int32 { return atomic.LoadInt32(&c.parent[x]) }

// Parents returns the parent array itself for plain reads, which must not
// write it. Only a phase in which no parent changes may read it: no Hook,
// TryUnion, SetParent or Find (whose path compression writes) may run
// concurrently. The Boruvka kernel's scan phase is one: it runs after the
// previous round's flatten and before the next hook.
func (c *Concurrent) Parents() []int32 { return c.parent }

// SetParent forcibly points x at p with a plain store. The Boruvka kernel
// uses it to point every member of a merged component straight at the
// root, after the hook phase's parallel loop has returned. Nothing may
// access the DSU concurrently with a SetParent: no hook, Find, Parent or
// other SetParent. A later parallel loop sees the store, because starting
// its goroutines orders it after the store.
func (c *Concurrent) SetParent(x, p int32) { c.parent[x] = p }

// CountSets returns the number of roots. Call at a quiescent point for an
// exact answer.
func (c *Concurrent) CountSets() int {
	return int(parutil.CountIf(len(c.parent), 1<<13, func(i int) bool {
		return atomic.LoadInt32(&c.parent[i]) == int32(i)
	}))
}
