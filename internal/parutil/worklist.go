package parutil

import "sync/atomic"

// Worklist is a double-buffered, data-driven worklist in the style the paper
// adopts from LonestarGPU: kernels drain the current buffer in parallel and
// push newly activated items into the next buffer with a single atomic
// bump per push. Swap flips the buffers between rounds.
//
// Pushing is safe from concurrent goroutines provided the worklist was
// created with enough capacity for all pushes in a round; Seed and Swap
// must only be called between rounds.
type Worklist struct {
	cur    []int32 // backing buffer; cur[:curLen] are the current items
	curLen int
	next   []int32 // backing buffer; next[:n] are the pushed items
	n      atomic.Int64
}

// NewWorklist creates a worklist whose buffers hold capacity items each.
func NewWorklist(capacity int) *Worklist { //lint:testonly dead; awaits deletion together with its tests
	if capacity < 1 {
		capacity = 1
	}
	return &Worklist{
		cur:  make([]int32, capacity),
		next: make([]int32, capacity),
	}
}

// Seed replaces the current items. It must be called between rounds.
func (w *Worklist) Seed(items []int32) { //lint:testonly dead; awaits deletion together with its tests
	if len(items) > len(w.cur) {
		w.cur = make([]int32, len(items))
		if len(w.next) < len(items) {
			w.next = make([]int32, len(items))
		}
	}
	copy(w.cur, items)
	w.curLen = len(items)
}

// Items returns the current items for draining. Callers must not retain the
// slice across a Swap.
func (w *Worklist) Items() []int32 { return w.cur[:w.curLen] } //lint:testonly dead; awaits deletion together with its tests

// Len reports the number of current items.
func (w *Worklist) Len() int { return w.curLen } //lint:testonly dead; awaits deletion together with its tests

// Pushed reports how many items have been pushed into the next buffer so
// far this round.
func (w *Worklist) Pushed() int { return int(w.n.Load()) } //lint:testonly dead; awaits deletion together with its tests

// Push appends item to the next buffer. Safe for concurrent use. It panics
// if the buffer capacity is exceeded, since growing under concurrent pushes
// cannot be done safely without locking; kernels size the worklist for the
// full vertex set up front.
func (w *Worklist) Push(item int32) { //lint:testonly dead; awaits deletion together with its tests
	i := w.n.Add(1) - 1
	w.next[i] = item
}

// Swap publishes the pushed items as current and clears the push buffer.
// It returns the number of items now current.
func (w *Worklist) Swap() int { //lint:testonly dead; awaits deletion together with its tests
	n := int(w.n.Swap(0))
	w.cur, w.next = w.next, w.cur
	w.curLen = n
	return n
}
