// Package transport is the rank-to-rank message delivery layer beneath
// internal/cluster. The cluster's simulated machine talks only through the
// Transport interface, so the same SPMD rank program runs unchanged over
// two backends:
//
//   - Mem: the in-process mailboxes the simulator has always used — every
//     rank is a goroutine, delivery is a slice handoff, nothing can fail.
//     Still the default and still deterministic under virtual time.
//   - TCP: real sockets between real OS processes. Length-prefixed,
//     CRC-checksummed frames (internal/wire), a coordinator handshake that
//     assigns rank ids and exchanges peer addresses, one pooled connection
//     per peer pair with dial retry and exponential backoff, configurable
//     deadlines, and heartbeat-based peer-death detection that surfaces as
//     an error on Send/Recv instead of a hang.
//
// Messages carry their virtual arrival time alongside the payload, so the
// simulated clocks evolve identically over both backends: a deterministic
// rank program produces byte-identical simulated-time reports in-process
// and across machines.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Message is one point-to-point transfer between ranks.
type Message struct {
	// Tag is the application-level message tag; the cluster checks it on
	// receive (receives name their expected tag, there is no wildcard).
	Tag int32
	// Arrival is the virtual time (seconds) at which the bytes are fully
	// received under the simulation's cost model.
	Arrival float64
	// Data is the payload. Sender and receiver are address-space-separate
	// by convention; senders must not modify the slice after Send.
	Data []byte
}

// Transport delivers messages for one rank of a P-rank cluster. Per
// (src, dst) pair, delivery is FIFO: every send to one destination shares
// one ordered stream. Implementations must allow Send and Recv from
// different goroutines, and Recv on distinct sources concurrently; Close
// unblocks every pending Recv with an error.
type Transport interface {
	// Rank reports this endpoint's rank id in [0, P).
	Rank() int
	// P reports the cluster size.
	P() int
	// Send enqueues m for delivery to rank dst and returns as soon as the
	// bounded per-peer outbound queue accepts it; on a real transport a
	// writer goroutine performs the blocking transfer underneath. The
	// caller must not modify m.Data afterwards. Backpressure that outlasts
	// the transport's queue deadline surfaces as a SendQueueFullError, and
	// a dead peer as a PeerDeadError, so Send never blocks indefinitely.
	// The in-process backend hands the message straight to the mailbox.
	Send(dst int, m Message) error
	// Recv blocks until the next message from rank src arrives and removes
	// it. It returns an error — rather than blocking forever — once the
	// peer is known dead or the transport is closed.
	Recv(src int) (Message, error)
	// Close releases the endpoint: queued sends are drained (bounded),
	// then pending and future Recvs error out and connections (if any)
	// are torn down. Close is idempotent.
	Close() error
}

// Aborter is implemented by transports that can fail the whole endpoint —
// every pending and future Send and Recv — with a caller-supplied
// cause. It is the mechanism behind a cluster-wide abort: when one rank
// dies, the survivors' blocked operations must return a typed error within
// a bounded time instead of wedging the run. Unlike Close, Abort performs
// no graceful drain: the cause overrides everything still in flight.
// Abort is idempotent; the first cause wins.
type Aborter interface {
	Abort(cause error)
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// SendQueueFullError reports a Send whose outbound queue to a rank stayed
// full past the backpressure deadline: the peer is alive but not
// consuming, or the link cannot keep up. Surfacing it as an error —
// instead of blocking forever — is what keeps a misscheduled exchange a
// diagnosable failure rather than a cluster-wide hang.
type SendQueueFullError struct {
	Rank int
	Wait time.Duration
}

func (e *SendQueueFullError) Error() string {
	return fmt.Sprintf("transport: outbound queue to rank %d full for %v (peer alive but not draining)", e.Rank, e.Wait)
}

// PeerDeadError reports a rank whose endpoint failed: its connection broke,
// it stopped heartbeating, or it closed while messages were still expected.
type PeerDeadError struct {
	Rank  int
	Cause error
}

func (e *PeerDeadError) Error() string {
	return fmt.Sprintf("transport: peer rank %d dead: %v", e.Rank, e.Cause)
}

func (e *PeerDeadError) Unwrap() error { return e.Cause }

// queue is an unbounded FIFO of messages for one (src → dst) pair.
// Unboundedness matters: the multi-phase ghost exchanges send many messages
// before the receiver drains any, and a bounded queue could deadlock the
// program even though the modeled MPI program would not. Once failed, every
// pending and future take returns the failure; once aborted, every future
// put does too.
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	msgs    []Message
	bytes   int64 // sum of len(Data) over msgs — the receive-window gauge
	err     error // sticky failure; messages already queued drain first
	aborted bool  // failNow ran: the queue refuses further messages
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put appends msg and wakes a waiting receiver. An aborted queue drops msg
// and returns the abort cause instead.
func (q *queue) put(msg Message) error {
	q.mu.Lock()
	if q.aborted {
		q.mu.Unlock()
		return q.err
	}
	q.msgs = append(q.msgs, msg)
	q.bytes += int64(len(msg.Data))
	q.mu.Unlock()
	q.cond.Broadcast()
	return nil
}

// take blocks until a message is available (or the queue has failed) and
// removes it. Messages already delivered before a failure drain first.
func (q *queue) take() (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.msgs) == 0 && q.err == nil {
		q.cond.Wait()
	}
	if len(q.msgs) == 0 {
		return Message{}, q.err
	}
	msg := q.msgs[0]
	// Avoid retaining the backing array forever.
	copy(q.msgs, q.msgs[1:])
	q.msgs[len(q.msgs)-1] = Message{}
	q.msgs = q.msgs[:len(q.msgs)-1]
	q.bytes -= int64(len(msg.Data))
	q.cond.Broadcast()
	return msg, nil
}

// waitBelow blocks until the queued payload bytes drop below limit or the
// queue fails. It is the receive-window pause used by flow-controlled
// readers: the reader parks here instead of buffering without bound, which
// propagates backpressure to the sender's bounded queue. Returns the sticky
// failure if the queue fails while waiting.
func (q *queue) waitBelow(limit int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.bytes >= limit && q.err == nil {
		q.cond.Wait()
	}
	return q.err
}

// fail marks the queue failed and wakes all waiters. The first cause wins.
func (q *queue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// failNow marks the queue failed AND discards everything still queued, so
// the very next take returns the cause instead of draining stale data
// first, and every later put is refused. It is the abort-path variant of
// fail: once a run is aborted, any undelivered message belongs to a
// computation that no longer exists.
func (q *queue) failNow(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.aborted = true
	q.msgs = nil
	q.bytes = 0
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pending reports the queue length (for tests).
func (q *queue) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs)
}
