package chaos

import (
	"fmt"
	"time"
)

// CorruptFrameError reports a message whose chaos frame failed validation
// at the receiver — a corrupted payload caught by the wire CRC, a
// desynchronized header, or a tag mismatch. The stream cannot be trusted
// past this point, so the link fails permanently.
type CorruptFrameError struct {
	// Src is the sending rank of the corrupt frame.
	Src int
	// Err is the wire-layer decode error (wire.ErrBadChecksum for a payload
	// bit flip).
	Err error
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("chaos: corrupt frame from rank %d: %v", e.Src, e.Err)
}

func (e *CorruptFrameError) Unwrap() error { return e.Err }

// FrameLossError reports a sequence gap that can never fill: the receiver
// buffered a full reorder window beyond the missing message, so the
// message was lost, not reordered.
type FrameLossError struct {
	// Src is the sending rank of the broken stream.
	Src int
	// Want is the sequence number the receiver is still missing.
	Want uint64
	// Buffered is how many later messages arrived while waiting for it.
	Buffered int
}

func (e *FrameLossError) Error() string {
	return fmt.Sprintf("chaos: stream from rank %d lost message seq %d (%d later messages buffered)",
		e.Src, e.Want, e.Buffered)
}

// DeadlineError reports a Recv whose per-op deadline expired: the link
// went silent — a dropped tail message, a partitioned peer, or a peer
// that stopped sending — and the receiver refused to block forever.
type DeadlineError struct {
	// Src is the rank the receive was waiting on.
	Src int
	// Want is the next sequence number the receiver expected.
	Want uint64
	// Timeout is the expired per-op deadline.
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("chaos: no message from rank %d within %v (awaiting seq %d)", e.Src, e.Timeout, e.Want)
}

// CrashStopError is every operation's result on a crash-stopped endpoint:
// the rank reached its scripted step and its transport is gone.
type CrashStopError struct {
	// Rank is the crashed rank.
	Rank int
	// Step is the scripted Lamport step the crash fired at.
	Step uint64
}

func (e *CrashStopError) Error() string {
	return fmt.Sprintf("chaos: rank %d crash-stopped at step %d", e.Rank, e.Step)
}
