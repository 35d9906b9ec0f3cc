package parutil

import "sync/atomic"

// NoEdge is the sentinel stored in a MinSlot that has received no proposal.
const NoEdge int64 = -1

// MinSlot is a lock-free "argmin" cell: concurrent writers propose candidate
// indices and the slot retains the index whose key (as defined by the
// caller's less function) is smallest. It is the core primitive behind
// lightest-edge selection in the Boruvka kernels, replacing the global
// atomicMin the paper describes for GPU kernels.
//
// The zero value is NOT ready for use; call Reset first (or allocate slots
// with NewMinSlots).
type MinSlot struct {
	v atomic.Int64
}

// Reset clears the slot to the empty state.
func (s *MinSlot) Reset() { s.v.Store(NoEdge) }

// Load returns the current winning index, or NoEdge if none was proposed.
func (s *MinSlot) Load() int64 { return s.v.Load() }

// Propose offers candidate idx. less reports whether index a's key is
// strictly smaller than index b's key; it must define a total order
// (ties broken deterministically, e.g. by index) or the winner is
// unspecified among equal keys. Propose returns true if idx became or
// already was the stored winner.
func (s *MinSlot) Propose(idx int64, less func(a, b int64) bool) bool {
	for {
		cur := s.v.Load()
		if cur != NoEdge && !less(idx, cur) {
			return cur == idx
		}
		if s.v.CompareAndSwap(cur, idx) {
			return true
		}
	}
}

// NewMinSlots allocates n reset slots.
func NewMinSlots(n int) []MinSlot {
	s := make([]MinSlot, n)
	for i := range s {
		s[i].Reset()
	}
	return s
}

// Counter is a padded atomic counter for high-contention counting, such as
// the work counters the device cost models consume. The padding avoids
// false sharing when counters sit in an array.
type Counter struct {
	v atomic.Int64
	_ [7]int64 // pad to a cache line
}

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }
