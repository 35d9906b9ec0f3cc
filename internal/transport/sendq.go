package transport

import (
	"sync"
	"time"

	"mndmst/internal/obs"
)

// outFrame is one queued outbound frame: the wire tag plus the fully
// encoded payload (arrival header included for data frames).
type outFrame struct {
	tag     int32
	payload []byte
}

// sendq is the bounded outbound frame queue feeding one peer's writer
// goroutine — the heart of the asynchronous send engine. Send callers
// enqueue and return; the single writer goroutine performs the blocking
// socket writes underneath, so a rank's program never sits inside a
// kernel `write` while it still owes the cluster a receive.
//
// The queue is bounded by payload bytes (capacity maxBytes, with at least
// one frame always admitted so a single oversized frame cannot wedge the
// sender forever). A full queue applies backpressure: put blocks until
// space opens, the deadline passes, the queue fails, or it closes — it
// never blocks indefinitely, which is the contract that turns the old
// deadlock class into clean rank errors.
type sendq struct {
	mu   sync.Mutex
	cond *sync.Cond

	frames   []outFrame
	bytes    int64 // queued payload bytes
	maxBytes int64

	enq  int64 // frames accepted by put
	done int64 // frames fully handed to the kernel by the writer

	err    error // sticky failure; queued frames are dropped
	closed bool  // graceful: no new puts, queued frames still drain

	// hw, when non-nil, tracks the peak queued payload bytes — the
	// backpressure high-water mark the observability layer exports.
	hw *obs.Gauge
}

func newSendq(maxBytes int64) *sendq {
	if maxBytes <= 0 {
		maxBytes = defaultSendQueueBytes
	}
	q := &sendq{maxBytes: maxBytes}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// errQueueTimeout is the internal sentinel put returns when backpressure
// outlasts the deadline; callers wrap it into a SendQueueFullError.
type errQueueTimeout struct{}

func (errQueueTimeout) Error() string { return "transport: outbound queue full past deadline" }

// wakeAt arms a one-shot broadcast so cond waiters can observe a deadline;
// the returned stop function releases the timer.
func (q *sendq) wakeAt(deadline time.Time) func() bool {
	t := time.AfterFunc(time.Until(deadline), func() {
		q.mu.Lock()
		// Lock/unlock pairs the broadcast with waiters' condition checks.
		q.mu.Unlock()
		q.cond.Broadcast()
	})
	return t.Stop
}

// put enqueues f, blocking while the queue is at capacity. It returns nil
// on acceptance, the sticky failure once the peer is dead, ErrClosed after
// closeq, and errQueueTimeout if no space opens before deadline.
func (q *sendq) put(f outFrame, deadline time.Time) error {
	stop := q.wakeAt(deadline)
	defer stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.err != nil {
			return q.err
		}
		if q.closed {
			return ErrClosed
		}
		if q.bytes < q.maxBytes || len(q.frames) == 0 {
			q.frames = append(q.frames, f)
			q.bytes += int64(len(f.payload))
			q.enq++
			q.hw.SetMax(float64(q.bytes))
			q.cond.Broadcast()
			return nil
		}
		if !time.Now().Before(deadline) {
			return errQueueTimeout{}
		}
		q.cond.Wait()
	}
}

// take removes the next frame for the writer, waiting at most idle for one
// to appear. It reports the frame, whether one was taken (false on an idle
// timeout — the writer's cue to prove liveness with a heartbeat), and
// whether the writer should exit (queue failed, or closed and drained).
func (q *sendq) take(idle time.Duration) (f outFrame, ok, exit bool) {
	stop := q.wakeAt(time.Now().Add(idle))
	defer stop()
	deadline := time.Now().Add(idle)
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.err != nil {
			return outFrame{}, false, true
		}
		if len(q.frames) > 0 {
			f = q.frames[0]
			copy(q.frames, q.frames[1:])
			q.frames[len(q.frames)-1] = outFrame{}
			q.frames = q.frames[:len(q.frames)-1]
			q.bytes -= int64(len(f.payload))
			q.cond.Broadcast()
			return f, true, false
		}
		if q.closed {
			return outFrame{}, false, true
		}
		if !time.Now().Before(deadline) {
			return outFrame{}, false, false
		}
		q.cond.Wait()
	}
}

// complete records that the frame most recently taken has been fully
// written to the kernel, waking flush waiters.
func (q *sendq) complete() {
	q.mu.Lock()
	q.done++
	q.mu.Unlock()
	q.cond.Broadcast()
}

// flush blocks until every frame accepted so far has been handed to the
// kernel, the queue fails, or the deadline passes (errQueueTimeout). It is
// Close's bounded drain; Send never waits for it.
func (q *sendq) flush(deadline time.Time) error {
	stop := q.wakeAt(deadline)
	defer stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	target := q.enq
	for {
		if q.done >= target {
			return nil
		}
		if q.err != nil {
			return q.err
		}
		if !time.Now().Before(deadline) {
			return errQueueTimeout{}
		}
		q.cond.Wait()
	}
}

// fail marks the queue dead: queued frames are dropped, pending and future
// puts and flushes return the cause, and the writer exits. First cause
// wins.
func (q *sendq) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.frames = nil
	q.bytes = 0
	q.mu.Unlock()
	q.cond.Broadcast()
}

// closeq stops accepting new frames while letting already queued frames
// drain; the writer exits once the queue is empty.
func (q *sendq) closeq() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// queued reports the number of frames currently waiting (for tests).
func (q *sendq) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.frames)
}
