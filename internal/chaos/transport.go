package chaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mndmst/internal/transport"
	"mndmst/internal/wire"
)

// Transport is one rank's fault-injecting endpoint. It implements
// transport.Transport (and transport.Aborter) by decorating an inner
// endpoint: every outbound message is wire-framed with a per-link sequence
// number and subjected to the configured faults; every inbound message is
// validated, deduplicated, and reassembled in sequence order, with a
// per-op deadline so nothing ever blocks forever.
type Transport struct {
	inner transport.Transport
	g     *group
	rank  int
	crash *Crash

	// step is the endpoint's Lamport operation counter: incremented on
	// every Send and Recv, it is the clock scripted crashes fire on.
	step atomic.Uint64

	crashMu  sync.Mutex
	crashErr error

	sends []*sendLink
	recvs []*recvLink

	done      chan struct{}
	closeOnce sync.Once
}

// sendLink is the per-destination sender state: the sequence counter and
// the one-slot reorder holdback.
type sendLink struct {
	mu   sync.Mutex
	seq  uint64
	held *framed // message held back by a reorder fault
}

// framed is one chaos-framed message ready for the inner transport.
type framed struct {
	msg transport.Message
}

// recvLink is the per-source receiver state: the persistent puller feeding
// raw inner messages through ch, the next expected sequence number, and
// the reorder reassembly buffer.
type recvLink struct {
	mu      sync.Mutex // serializes Recv calls from one src
	ch      chan pulled
	started atomic.Bool
	err     error // sticky link failure (guarded by mu)
	next    uint64
	pending map[uint64]transport.Message
}

// pulled is one raw delivery (or the inner transport's failure).
type pulled struct {
	m   transport.Message
	err error
}

func newTransport(inner transport.Transport, g *group) *Transport {
	p := inner.P()
	t := &Transport{
		inner: inner,
		g:     g,
		rank:  inner.Rank(),
		crash: g.cfg.crashFor(inner.Rank()),
		sends: make([]*sendLink, p),
		recvs: make([]*recvLink, p),
		done:  make(chan struct{}),
	}
	for i := 0; i < p; i++ {
		t.sends[i] = &sendLink{}
		t.recvs[i] = &recvLink{ch: make(chan pulled), pending: make(map[uint64]transport.Message)}
	}
	return t
}

// Rank reports the inner endpoint's rank.
func (t *Transport) Rank() int { return t.inner.Rank() }

// P reports the cluster size.
func (t *Transport) P() int { return t.inner.P() }

// checkCrash advances the Lamport counter and fires the scripted crash
// once the counter reaches its step: the inner endpoint closes and every
// subsequent operation returns the same CrashStopError.
func (t *Transport) checkCrash() error {
	step := t.step.Add(1)
	if t.crash == nil {
		return nil
	}
	t.crashMu.Lock()
	defer t.crashMu.Unlock()
	if t.crashErr != nil {
		return t.crashErr
	}
	if step >= t.crash.Step {
		t.crashErr = &CrashStopError{Rank: t.rank, Step: t.crash.Step}
		t.g.record(Event{Src: t.rank, Dst: t.rank, Seq: t.crash.Step, Fault: FaultCrash})
		t.inner.Close() // peers observe the death through their transport
	}
	return t.crashErr
}

// Decide is the pure fault-decision function: the fault (if any) injected
// into message seq of link src→dst under cfg. It depends only on its
// arguments — no state, no clock, no scheduler — which is what makes a
// chaos schedule replayable from its seed alone.
func Decide(cfg Config, src, dst int, seq uint64) FaultKind {
	for _, f := range cfg.Faults {
		if f.Src == src && f.Dst == dst && f.Seq == seq {
			return f.Fault
		}
	}
	if cfg.DropProb == 0 && cfg.CorruptProb == 0 && cfg.DupProb == 0 &&
		cfg.ReorderProb == 0 && cfg.DelayProb == 0 {
		return FaultNone
	}
	rng := rand.New(rand.NewSource(mix(cfg.Seed, src, dst, seq)))
	// One draw per fault class, in fixed order, so adding a probability
	// never reshuffles the draws of the classes before it.
	pDrop, pCorrupt, pDup := rng.Float64(), rng.Float64(), rng.Float64()
	pReorder, pDelay := rng.Float64(), rng.Float64()
	switch {
	case pDrop < cfg.DropProb:
		return FaultDrop
	case pCorrupt < cfg.CorruptProb:
		return FaultCorrupt
	case pDup < cfg.DupProb:
		return FaultDup
	case pReorder < cfg.ReorderProb:
		return FaultReorder
	case pDelay < cfg.DelayProb:
		return FaultDelay
	default:
		return FaultNone
	}
}

// delayFor derives the seed-determined duration of a FaultDelay.
func delayFor(cfg Config, src, dst int, seq uint64) time.Duration {
	rng := rand.New(rand.NewSource(mix(cfg.Seed, src, dst, seq) ^ 0x64656c6179)) // "delay"
	return time.Duration(rng.Int63n(int64(cfg.delayMax()))) + 1
}

// corruptAt derives the seed-determined payload bit a FaultCorrupt flips.
func corruptAt(cfg Config, src, dst int, seq uint64, payloadLen int) (offset int, bit uint) {
	rng := rand.New(rand.NewSource(mix(cfg.Seed, src, dst, seq) ^ 0x636f7272)) // "corr"
	return rng.Intn(payloadLen), uint(rng.Intn(8))
}

// mix folds a link coordinate into the seed with a splitmix64 finalizer.
func mix(seed int64, src, dst int, seq uint64) int64 {
	z := uint64(seed) ^ uint64(src)*0x9E3779B97F4A7C15 ^ uint64(dst)<<32 ^ seq*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Send delivers m to dst through the fault layer.
func (t *Transport) Send(dst int, m transport.Message) error {
	if err := t.checkCrash(); err != nil {
		return err
	}
	if err := t.g.aborted(); err != nil {
		return err
	}
	cfg := t.g.cfg
	l := t.sends[dst]
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.seq
	l.seq++

	if cfg.split(t.rank, dst) {
		// Partitioned: the message vanishes on the (severed) wire. The
		// sequence number is consumed, exactly as a real link would lose
		// the bytes after the sender accounted for them.
		t.g.record(Event{Src: t.rank, Dst: dst, Seq: seq, Fault: FaultPartition})
		return nil
	}

	t.degradeLink(dst, seq)

	fault := Decide(cfg, t.rank, dst, seq)
	data := frameMsg(m, seq)
	if fault != FaultNone {
		t.g.record(Event{Src: t.rank, Dst: dst, Seq: seq, Fault: fault})
	}

	// The previous reorder holdback (if any) is delivered AFTER whatever
	// this call delivers, materializing the out-of-order arrival.
	flush := l.held
	l.held = nil

	switch fault {
	case FaultDrop:
		// Deliver nothing; the receiver sees the gap.
	case FaultCorrupt:
		off, bit := corruptAt(cfg, t.rank, dst, seq, len(data)-wire.FrameHeaderLen)
		data[wire.FrameHeaderLen+off] ^= 1 << bit
		if err := t.forward(dst, m, data); err != nil {
			return err
		}
	case FaultDup:
		if err := t.forward(dst, m, data); err != nil {
			return err
		}
		if err := t.forward(dst, m, data); err != nil {
			return err
		}
	case FaultReorder:
		h := &framed{msg: inner(m, data)}
		l.held = h
		// Safety valve: if no later send flushes the holdback (it was the
		// link's last message), a timer delivers it anyway, so a reorder is
		// always a bounded delay and never a silent loss. The receiver
		// reassembles by sequence number either way.
		time.AfterFunc(t.holdMax(), func() { t.flushHeld(dst, l, h) })
	case FaultDelay:
		time.Sleep(delayFor(cfg, t.rank, dst, seq))
		if err := t.forward(dst, m, data); err != nil {
			return err
		}
	default:
		if err := t.forward(dst, m, data); err != nil {
			return err
		}
	}
	if flush != nil {
		if err := t.inner.Send(dst, flush.msg); err != nil {
			return err
		}
	}
	return nil
}

// holdMax bounds how long a reorder fault may hold a message back when no
// later traffic flushes it.
func (t *Transport) holdMax() time.Duration {
	return 2 * t.g.cfg.delayMax()
}

// flushHeld delivers a reorder holdback if it is still being held.
func (t *Transport) flushHeld(dst int, l *sendLink, h *framed) {
	l.mu.Lock()
	if l.held != h {
		l.mu.Unlock()
		return
	}
	l.held = nil
	l.mu.Unlock()
	t.inner.Send(dst, h.msg) // best effort: a late flush beats a silent loss
}

// degradeLink applies the configured Slow and Stall pauses of link
// t.rank→dst to message seq.
func (t *Transport) degradeLink(dst int, seq uint64) {
	for _, s := range t.g.cfg.Slow {
		if s.Src == t.rank && s.Dst == dst && (s.FirstN == 0 || seq < s.FirstN) {
			t.g.record(Event{Src: t.rank, Dst: dst, Seq: seq, Fault: FaultSlow})
			time.Sleep(s.PerMsg)
		}
	}
	for _, s := range t.g.cfg.Stall {
		if s.Src == t.rank && s.Dst == dst && s.AtSeq == seq {
			t.g.record(Event{Src: t.rank, Dst: dst, Seq: seq, Fault: FaultStall})
			time.Sleep(s.Pause)
		}
	}
}

// frameMsg wraps a message in the chaos wire frame: tag-matched,
// CRC-covered, sequence-numbered. The frame payload is always at least 8
// bytes (the sequence number), so a corruption offset inside the payload
// always exists and is always covered by the CRC.
func frameMsg(m transport.Message, seq uint64) []byte {
	payload := make([]byte, 0, 8+len(m.Data))
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	payload = append(payload, m.Data...)
	return wire.AppendFrame(nil, m.Tag, payload)
}

// inner rebuilds the inner-transport message carrying framed data.
func inner(m transport.Message, data []byte) transport.Message {
	return transport.Message{Tag: m.Tag, Arrival: m.Arrival, Data: data}
}

func (t *Transport) forward(dst int, m transport.Message, data []byte) error {
	return t.inner.Send(dst, inner(m, data))
}

// Recv returns the next in-sequence message from src: duplicates are
// discarded, reordered arrivals are buffered and released in order, and
// corruption, loss, silence, crash, and abort all surface as typed errors
// within a bounded time.
func (t *Transport) Recv(src int) (transport.Message, error) {
	if err := t.checkCrash(); err != nil {
		return transport.Message{}, err
	}
	l := t.recvs[src]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return transport.Message{}, l.err
	}
	t.startPuller(l, src)
	for {
		if m, ok := l.pending[l.next]; ok {
			delete(l.pending, l.next)
			l.next++
			return m, nil
		}
		if len(l.pending) > t.g.cfg.reorderWindow() {
			l.err = &transport.PeerDeadError{Rank: src, Cause: &FrameLossError{
				Src: src, Want: l.next, Buffered: len(l.pending),
			}}
			return transport.Message{}, l.err
		}
		raw, err := t.pull(l, src)
		if err != nil {
			l.err = err
			return transport.Message{}, err
		}
		seq, m, err := t.unframe(src, raw)
		if err != nil {
			l.err = err
			return transport.Message{}, err
		}
		if seq < l.next {
			// A duplicate of an already-delivered message: discard.
			t.g.record(Event{Src: src, Dst: t.rank, Seq: seq, Fault: FaultDupDiscard})
			continue
		}
		l.pending[seq] = m
	}
}

// startPuller lazily starts the link's persistent reader goroutine. One
// puller per (src → this rank) link lives for the endpoint's lifetime:
// a Recv deadline must not abandon a blocking inner Recv in a way that
// steals the next message, so the puller owns the inner stream and Recv
// consumes from its channel.
func (t *Transport) startPuller(l *recvLink, src int) {
	if !l.started.CompareAndSwap(false, true) {
		return
	}
	go func() { // joined by t.done: exits on endpoint close/abort or inner failure
		for {
			m, err := t.inner.Recv(src)
			select {
			case l.ch <- pulled{m: m, err: err}:
			case <-t.done:
				return
			}
			if err != nil {
				return // inner link is sticky-failed; nothing more to pull
			}
		}
	}()
}

// pull waits for the puller's next raw delivery, bounded by the configured
// per-op deadline and the group abort latch.
func (t *Transport) pull(l *recvLink, src int) (transport.Message, error) {
	var deadline <-chan time.Time
	if to := t.g.cfg.RecvTimeout; to > 0 {
		timer := time.NewTimer(to)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case p := <-l.ch:
		if p.err != nil {
			return transport.Message{}, p.err
		}
		return p.m, nil
	case <-deadline:
		return transport.Message{}, &transport.PeerDeadError{Rank: src, Cause: &DeadlineError{
			Src: src, Want: l.next, Timeout: t.g.cfg.RecvTimeout,
		}}
	case <-t.g.abortCh:
		return transport.Message{}, t.g.aborted()
	}
}

// unframe validates one chaos frame: CRC (the wire path that catches
// injected corruption), tag consistency, and the sequence header.
func (t *Transport) unframe(src int, m transport.Message) (uint64, transport.Message, error) {
	tag, payload, rest, err := wire.TakeFrame(m.Data)
	if err != nil {
		return 0, transport.Message{}, &transport.PeerDeadError{Rank: src, Cause: &CorruptFrameError{Src: src, Err: err}}
	}
	if len(rest) != 0 || tag != m.Tag || len(payload) < 8 {
		return 0, transport.Message{}, &transport.PeerDeadError{Rank: src, Cause: &CorruptFrameError{
			Src: src, Err: fmt.Errorf("frame shape: tag %d vs %d, %d trailing, %d payload", tag, m.Tag, len(rest), len(payload)),
		}}
	}
	seq := binary.LittleEndian.Uint64(payload)
	return seq, transport.Message{Tag: m.Tag, Arrival: m.Arrival, Data: payload[8:]}, nil
}

// Close flushes any reorder holdbacks (best effort) and tears the
// endpoint down: the pullers exit and the inner transport closes.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		for dst, l := range t.sends {
			l.mu.Lock()
			if h := l.held; h != nil {
				l.held = nil
				t.inner.Send(dst, h.msg) // best effort: a late flush beats a silent loss
			}
			l.mu.Unlock()
		}
		close(t.done)
		t.inner.Close()
	})
	return nil
}

// Abort fails the whole endpoint with cause: the group latch unblocks
// every chaos-level Recv, and the inner endpoint aborts (or closes), which
// unblocks the pullers and notifies peers.
func (t *Transport) Abort(cause error) {
	t.g.abort(cause)
	if a, ok := t.inner.(transport.Aborter); ok {
		a.Abort(cause)
	} else {
		t.inner.Close()
	}
}
