package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mndmst/internal/obs"
)

// Event records one injected fault: message seq of link Src→Dst was
// subjected to Fault. Crash events use Src == Dst == the crashed rank and
// Seq == the scripted step.
type Event struct {
	Src, Dst int
	Seq      uint64
	Fault    FaultKind
}

func (e Event) String() string {
	return fmt.Sprintf("%d->%d seq=%d %s", e.Src, e.Dst, e.Seq, e.Fault)
}

// group is the state shared by every endpoint Wrap decorates: the config,
// the fault journal, and the abort latch.
type group struct {
	cfg    Config
	faults *obs.CounterVec // nil (no-op) without Config.Metrics

	mu     sync.Mutex
	events []Event

	abortCh   chan struct{}
	abortOnce sync.Once
	abortErr  error
}

func newGroup(cfg Config) *group {
	return &group{
		cfg: cfg,
		faults: cfg.Metrics.CounterVec("mndmst_chaos_faults_total",
			"injected faults recorded in the chaos journal, by fault kind", "kind"),
		abortCh: make(chan struct{}),
	}
}

// record appends one fault event to the journal (and counts it by kind
// when a metrics registry is configured).
func (g *group) record(e Event) {
	g.faults.With(string(e.Fault)).Inc()
	g.mu.Lock()
	g.events = append(g.events, e)
	g.mu.Unlock()
}

// abort latches the group failed: every blocked chaos Recv unblocks with
// cause. The first cause wins.
func (g *group) abort(cause error) {
	g.abortOnce.Do(func() {
		g.mu.Lock()
		g.abortErr = cause
		g.mu.Unlock()
		close(g.abortCh)
	})
}

// aborted reports the latched abort cause, or nil.
func (g *group) aborted() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.abortErr
}

// Journal returns the injected-fault schedule of every endpoint sharing
// this decorator group: the send-side decisions (drop, corrupt, dup,
// reorder, delay, slow, stall, partition) plus scripted crashes. These are
// pure functions of the seed and the per-link sequence numbers, so two
// replays of the same run compare byte-identically regardless of
// goroutine scheduling. Receive-side observations (duplicate discards),
// whose presence depends on how far each receiver drained before
// shutdown, are reported separately by Effects. Events are sorted into
// the canonical (Src, Dst, Seq, Fault) order.
func (t *Transport) Journal() []Event { //lint:testonly prints the fault journal a failed chaos test is replayed from
	return t.sortedEvents(func(e Event) bool { return e.Fault != FaultDupDiscard })
}

// Effects returns the receive-side fault observations (currently only
// duplicate discards). Unlike the Journal schedule, whether a given
// effect is observed can depend on goroutine scheduling: a duplicate
// still in flight when its receiver shuts down is never discarded.
func (t *Transport) Effects() []Event { //lint:testonly prints the fault journal a failed chaos test is replayed from
	return t.sortedEvents(func(e Event) bool { return e.Fault == FaultDupDiscard })
}

func (t *Transport) sortedEvents(keep func(Event) bool) []Event {
	g := t.g
	g.mu.Lock()
	var out []Event
	for _, e := range g.events {
		if keep(e) {
			out = append(out, e)
		}
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Fault < b.Fault
	})
	return out
}

// FormatJournal renders a journal one event per line — the replayable
// fault schedule a failing test logs next to its seed.
func FormatJournal(events []Event) string { //lint:testonly prints the fault journal a failed chaos test is replayed from
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
