// Package chaos is a seeded, fully deterministic fault-injecting decorator
// for transport.Transport. It wraps any backend — the in-process Mem matrix
// or the real TCP mesh — and perturbs the message stream per link: delaying,
// duplicating, reordering, dropping, and corrupting messages, slowing or
// stalling individual links, partitioning rank subsets, and crash-stopping
// a rank at a scripted logical step.
//
// Every message travels inside a CRC-checksummed wire frame carrying a
// per-link sequence number, so the receiving side of the decorator can
// classify exactly what the link did to the stream:
//
//   - Corruption is caught by the wire CRC path (wire.ErrBadChecksum) and
//     surfaces as a CorruptFrameError — never as silently wrong data.
//   - Duplicated messages are recognized by their repeated sequence number
//     and discarded; reordered messages are reassembled in sequence order
//     (within a bounded window). Runs under these faults complete and must
//     produce bit-identical results to a fault-free run.
//   - Dropped messages leave a sequence gap that can never fill: the
//     receiver fails with a typed error (FrameLossError when the window
//     overflows, DeadlineError when the stream goes quiet) instead of
//     delivering a stream with a hole in it.
//   - A crash-stopped rank fails every subsequent operation with a
//     CrashStopError; its endpoint closes, which peers observe as
//     immediate transport failures (TCP) or through the cluster's abort
//     broadcast (Mem).
//
// Determinism: every probabilistic decision is a pure function of the
// configured seed and the (src, dst, seq) coordinate of the message — each
// endpoint also keeps a per-op Lamport counter driving scripted crashes —
// so a failure replays bit-identically from its logged seed regardless of
// goroutine scheduling. Decide exposes the pure decision function; the
// Journal records the faults a run actually injected (bit-identical across
// replays of runs that complete; for aborted runs the per-op decisions are
// still identical, though how far each rank progressed may vary).
//
// Virtual time is never touched: faults act on real time and real delivery
// only, so a run that completes under benign chaos (delays, slowdowns,
// duplicates, reordering) reports exactly the simulated clocks of a clean
// run — the invariant the differential oracle suite leans on.
package chaos

import (
	"time"

	"mndmst/internal/obs"
	"mndmst/internal/transport"
)

// FaultKind names one kind of injected fault.
type FaultKind string

// The fault taxonomy.
const (
	// FaultDelay sleeps a seed-derived real-time duration (at most
	// Config.DelayMax) before delivering; benign, results unchanged.
	FaultDelay FaultKind = "delay"
	// FaultDup delivers the message twice; the receiver discards the
	// duplicate by sequence number. Benign.
	FaultDup FaultKind = "dup"
	// FaultReorder holds the message back until after the link's next
	// message; the receiver reassembles in sequence order. Benign.
	FaultReorder FaultKind = "reorder"
	// FaultDrop discards the message; the receiver detects the gap and
	// fails with a typed error.
	FaultDrop FaultKind = "drop"
	// FaultCorrupt flips one payload bit; the wire CRC catches it and the
	// receiver fails with CorruptFrameError.
	FaultCorrupt FaultKind = "corrupt"
	// FaultPartition marks a message silently discarded because sender and
	// receiver sit on opposite sides of the configured partition.
	FaultPartition FaultKind = "partition"
	// FaultCrash marks a rank crash-stopping at its scripted step.
	FaultCrash FaultKind = "crash-stop"
	// FaultStall marks a scripted one-shot link stall (long pause).
	FaultStall FaultKind = "stall"
	// FaultSlow marks a scripted per-message link slowdown.
	FaultSlow FaultKind = "slow"
	// FaultDupDiscard marks a receiver discarding a duplicated message it
	// recognized by its repeated sequence number (the benign tail of a
	// FaultDup injection). As a receive-side observation it appears in
	// Effects, not in the deterministic Journal schedule.
	FaultDupDiscard FaultKind = "dup-discard"
	// FaultNone is Decide's answer for an unperturbed message.
	FaultNone FaultKind = ""
)

// LinkSlow slows one directed link down: every message Src→Dst sleeps
// PerMsg before delivery. FirstN > 0 limits the slowdown to the link's
// first FirstN messages (a slow-start).
type LinkSlow struct {
	Src, Dst int
	PerMsg   time.Duration
	FirstN   uint64
}

// LinkStall pauses one directed link once: the message with sequence
// number AtSeq sleeps Pause before delivery.
type LinkStall struct {
	Src, Dst int
	AtSeq    uint64
	Pause    time.Duration
}

// Crash scripts a crash-stop: the rank's endpoint fails permanently at its
// Step-th transport operation (Send or Recv — the per-endpoint
// Lamport counter), closing the underlying transport.
type Crash struct {
	Rank int
	Step uint64
}

// ScriptedFault injects one exact fault at a (src, dst, seq) coordinate,
// independent of the probabilistic faults — the precision tool tests use
// to provoke one specific failure deterministically.
type ScriptedFault struct {
	Src, Dst int
	Seq      uint64
	Fault    FaultKind
}

// Config parameterizes a chaos transport. The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision. Two runs over the same
	// program with the same Seed draw the identical fault schedule.
	Seed int64

	// Per-message fault probabilities in [0, 1]. At most one probabilistic
	// fault fires per message, decided in the fixed order drop, corrupt,
	// dup, reorder, delay.
	DropProb    float64
	CorruptProb float64
	DupProb     float64
	ReorderProb float64
	DelayProb   float64

	// DelayMax bounds one injected delay (default 2ms). Keep it well below
	// the TCP backend's PeerTimeout and this config's RecvTimeout.
	DelayMax time.Duration

	// RecvTimeout bounds every Recv: a link silent for this long fails
	// with a DeadlineError instead of blocking forever. It is what turns a
	// dropped message or a network partition into a typed error within a
	// deadline. 0 disables the per-op deadline (crash and abort detection
	// still work through endpoint teardown). Must exceed the worst-case
	// injected delay (DelayMax plus any Slow/Stall pauses).
	RecvTimeout time.Duration

	// ReorderWindow bounds how many out-of-order messages a receiving link
	// buffers before declaring the stream broken (default 64).
	ReorderWindow int

	// Faults scripts exact fault injections on top of the probabilities.
	Faults []ScriptedFault

	// Slow and Stall degrade individual links.
	Slow  []LinkSlow
	Stall []LinkStall

	// Isolate partitions the cluster: messages between a rank inside the
	// set and a rank outside it are silently discarded, both directions.
	Isolate []int

	// Crashes crash-stop ranks at scripted steps.
	Crashes []Crash

	// Metrics, when non-nil, counts every injected fault by kind
	// (mndmst_chaos_faults_total). Observation only: the fault schedule
	// and the journal are byte-identical with or without a registry.
	Metrics *obs.Registry
}

// defaultDelayMax bounds an injected delay when Config.DelayMax is unset.
const defaultDelayMax = 2 * time.Millisecond

// defaultReorderWindow is the receive reassembly window when unset.
const defaultReorderWindow = 64

func (c Config) delayMax() time.Duration {
	if c.DelayMax <= 0 {
		return defaultDelayMax
	}
	return c.DelayMax
}

func (c Config) reorderWindow() int {
	if c.ReorderWindow <= 0 {
		return defaultReorderWindow
	}
	return c.ReorderWindow
}

// crashFor reports the scripted crash for a rank, if any.
func (c Config) crashFor(rank int) *Crash {
	for i := range c.Crashes {
		if c.Crashes[i].Rank == rank {
			return &c.Crashes[i]
		}
	}
	return nil
}

// split reports whether ranks a and b sit on opposite sides of the
// configured partition.
func (c Config) split(a, b int) bool {
	if len(c.Isolate) == 0 {
		return false
	}
	return c.isolated(a) != c.isolated(b)
}

func (c Config) isolated(r int) bool {
	for _, x := range c.Isolate {
		if x == r {
			return true
		}
	}
	return false
}

// Wrap decorates every endpoint of an in-process group with one shared
// chaos layer (one journal, one abort latch). eps[i] must be rank i's
// endpoint of the same transport group.
func Wrap(eps []transport.Transport, cfg Config) []*Transport {
	g := newGroup(cfg)
	out := make([]*Transport, len(eps))
	for i, ep := range eps {
		out[i] = newTransport(ep, g)
	}
	return out
}

// WrapOne decorates a single endpoint (one rank of a distributed cluster)
// with its own chaos layer. Peers see this rank's faults exactly as a real
// flaky link would present them; for faults on every link, wrap every
// worker's endpoint with the same Config.
func WrapOne(ep transport.Transport, cfg Config) *Transport {
	return Wrap([]transport.Transport{ep}, cfg)[0]
}
