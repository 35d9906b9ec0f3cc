package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCanceledMidRun cancels a run whose ranks are blocked in a
// receive, a barrier and an allreduce while one rank computes without
// communicating. The abort must reach every rank, the computing one at its
// next send, and Run must return the context's error only after every fn
// has returned.
func TestRunCanceledMidRun(t *testing.T) {
	const tagData = 7
	c := New(4, testComm())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var exited atomic.Int32
	var sent atomic.Bool
	computing := make(chan struct{})
	fn := func(r *Rank) error {
		defer exited.Add(1)
		switch r.ID() {
		case 0:
			r.Recv(3, tagData) // rank 3 sends only after the abort
		case 1:
			r.Barrier()
		case 2:
			r.Allreduce([]int64{1}, OpSum)
		case 3:
			// Compute until the three blocked ranks have left, so the
			// send below is the rank's first communication after the
			// abort. The wall bound keeps a broken abort from spinning
			// forever.
			close(computing)
			deadline := time.Now().Add(10 * time.Second)           //lint:wallclock bounds a test spin loop, not simulated time
			for exited.Load() < 3 && time.Now().Before(deadline) { //lint:wallclock bounds a test spin loop, not simulated time
				r.Compute(1e-9)
			}
			r.Send(0, tagData, []byte{1})
			sent.Store(true)
		}
		return nil
	}
	type outcome struct {
		rep *Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := c.Run(ctx, fn)
		done <- outcome{rep, err}
	}()
	<-computing
	cancel()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5s of the cancel")
	}
	if n := exited.Load(); n != 4 {
		t.Fatalf("Run returned with %d of 4 rank programs finished", n)
	}
	if sent.Load() {
		t.Fatal("rank 3's send after the abort succeeded")
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", out.err)
	}
	var ae *AbortError
	var rle *RankLostError
	if errors.As(out.err, &ae) || errors.As(out.err, &rle) {
		t.Fatalf("cancellation carries the abort cascade: %v", out.err)
	}
}

// TestRunCanceledBeforeStart checks that a context that is already done
// starts no rank.
func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	_, err := New(4, testComm()).Run(ctx, func(r *Rank) error {
		called = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("fn ran under a canceled context")
	}
}

// TestRunCancelAfterOutcome checks that a context firing after the run's
// outcome is decided changes nothing: a run whose ranks all succeeded
// stands, and a rank failure that latched the abort first stays the
// reported cause.
func TestRunCancelAfterOutcome(t *testing.T) {
	t.Run("success stands", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := New(4, testComm()).Run(ctx, func(r *Rank) error {
			if r.ID() == 0 {
				cancel()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("late cancel failed a successful run: %v", err)
		}
	})
	t.Run("earlier failure wins", func(t *testing.T) {
		boom := errors.New("boom")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		aborted := make(chan struct{})
		_, err := New(3, testComm()).Run(ctx, func(r *Rank) error {
			switch r.ID() {
			case 0:
				return boom
			case 1:
				defer close(aborted)
				r.Recv(0, 1) // fails with rank 0's abort
			case 2:
				<-aborted
				cancel()
			}
			return nil
		})
		if !errors.Is(err, boom) || errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want rank 0's failure, not the cancel", err)
		}
	})
}
