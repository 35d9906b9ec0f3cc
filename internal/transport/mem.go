package transport

import "fmt"

// Mem is the in-process transport endpoint: all P ranks live in one
// process (one goroutine each) and share a P×P matrix of unbounded FIFO
// mailboxes. Delivery is a slice handoff — nothing is copied, nothing can
// fail, and no real time is consumed, which keeps the default simulation
// deterministic and fast.
type Mem struct {
	rank int
	p    int
	// boxes[dst][src] holds messages from src to dst; shared by all
	// endpoints of the group.
	boxes [][]*queue
}

// NewMem creates the endpoints of a p-rank in-process group. The i-th
// element is rank i's endpoint.
func NewMem(p int) []*Mem {
	if p < 1 {
		panic(fmt.Sprintf("transport: invalid rank count %d", p))
	}
	boxes := make([][]*queue, p)
	for d := range boxes {
		boxes[d] = make([]*queue, p)
		for s := range boxes[d] {
			boxes[d][s] = newQueue()
		}
	}
	eps := make([]*Mem, p)
	for i := range eps {
		eps[i] = &Mem{rank: i, p: p, boxes: boxes}
	}
	return eps
}

// Rank reports this endpoint's rank id.
func (m *Mem) Rank() int { return m.rank }

// P reports the group size.
func (m *Mem) P() int { return m.p }

// Send enqueues msg for dst. It fails only after Abort, with the abort
// cause; out-of-range destinations are programming errors and panic, as
// the simulator always has.
func (m *Mem) Send(dst int, msg Message) error {
	return m.boxes[dst][m.rank].put(msg)
}

// Recv blocks until the next message from src arrives.
func (m *Mem) Recv(src int) (Message, error) {
	return m.boxes[m.rank][src].take()
}

// Close fails this endpoint's inbound queues so a Recv blocked across a
// bug cannot hang forever. In normal runs every rank returns before any
// endpoint closes, so Close is effectively a no-op.
func (m *Mem) Close() error {
	for _, q := range m.boxes[m.rank] {
		q.fail(ErrClosed)
	}
	return nil
}

// Abort fails every mailbox of the whole in-process group with cause —
// not just this endpoint's — discarding undelivered messages, so every
// rank blocked anywhere in the matrix unblocks with the cause immediately.
// This is the in-process form of an abort broadcast: with all ranks in one
// address space, failing the shared queue matrix reaches everyone without
// any network round trip. Idempotent; the first cause wins per queue.
func (m *Mem) Abort(cause error) {
	for _, row := range m.boxes {
		for _, q := range row {
			q.failNow(cause)
		}
	}
}
