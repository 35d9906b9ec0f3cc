package retry

import (
	"context"
	"sync"
	"time"
)

// SimClock is a virtual Clock for policy tests: Sleep advances the clock
// instantly instead of waiting, and every requested duration is recorded,
// so a whole backoff schedule — budgets and deadline clamps included —
// is assertable without wall time. Safe for concurrent use.
type SimClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

// NewSimClock returns a SimClock starting at start.
func NewSimClock(start time.Time) *SimClock { //lint:testonly simulated clock the retry tests inject
	return &SimClock{now: start}
}

// Now returns the virtual time.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances virtual time by d (recording the request) unless ctx is
// already done, in which case it returns ctx.Err() without advancing —
// mirroring a real sleep interrupted at its start.
func (c *SimClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	c.sleeps = append(c.sleeps, d)
	return nil
}

// Sleeps returns a copy of every duration passed to Sleep, in order.
func (c *SimClock) Sleeps() []time.Duration { //lint:testonly simulated clock the retry tests inject
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.sleeps))
	copy(out, c.sleeps)
	return out
}
