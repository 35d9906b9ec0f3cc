package transport

import (
	"errors"
	"net"
	"testing"
	"time"
)

// refusedAddr returns a loopback address that actively refuses
// connections: bind a port, then free it.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialRetryCancelPrompt is the regression test for the uninterruptible
// backoff sleep: with an hour-long backoff pending, closing Cancel must
// return promptly with ErrDialCanceled instead of sleeping the hour out.
func TestDialRetryCancelPrompt(t *testing.T) {
	addr := refusedAddr(t)
	cancel := make(chan struct{})
	hour := func(int) time.Duration { return time.Hour }
	done := make(chan error, 1)
	go func() {
		_, err := dialRetry(addr, time.Now().Add(2*time.Hour), nil, hour, cancel)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first dial fail and the backoff start
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDialCanceled) {
			t.Fatalf("dialRetry = %v, want ErrDialCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dialRetry still sleeping after cancel; backoff is uninterruptible again")
	}
}

// TestRendezvousCancelPrompt covers the same interruptibility contract one
// level up: a worker stuck re-dialing a dead coordinator must abandon the
// rendezvous as soon as Cancel closes, long before DialTimeout.
func TestRendezvousCancelPrompt(t *testing.T) {
	cancel := make(chan struct{})
	cfg := TCPConfig{
		Coordinator: refusedAddr(t),
		DialTimeout: time.Hour,
		RetrySeed:   7,
		Cancel:      cancel,
	}.withDefaults()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := rendezvousTCP(cfg, "127.0.0.1:1")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDialCanceled) {
			t.Fatalf("rendezvousTCP = %v, want ErrDialCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rendezvousTCP did not abandon the backoff after cancel")
	}
}

// TestDialTCPCancelWhileJoining cancels a full DialTCP stuck on a dead
// coordinator and requires a prompt, typed failure.
func TestDialTCPCancelWhileJoining(t *testing.T) {
	cancel := make(chan struct{})
	cfg := TCPConfig{
		Coordinator: refusedAddr(t),
		DialTimeout: time.Hour,
		RetrySeed:   11,
		Cancel:      cancel,
	}
	done := make(chan error, 1)
	go func() {
		tp, err := DialTCP(cfg)
		if tp != nil {
			tp.Close()
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDialCanceled) {
			t.Fatalf("DialTCP = %v, want ErrDialCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DialTCP did not return promptly after cancel")
	}
}

// TestBackoffJitterDecorrelatesLoops pins the lockstep fix: the
// rendezvous loop, the coordinator dial, and each peer dial draw from
// decorrelated jitter streams, while the same seed replays the same
// schedule (test determinism).
func TestBackoffJitterDecorrelatesLoops(t *testing.T) {
	const seed = 42
	loops := []backoff{
		{25 * time.Millisecond, seed},
		{10 * time.Millisecond, seed + seedOffsetCoordinatorDial},
		{10 * time.Millisecond, seed + seedOffsetPeerDial + 0},
		{10 * time.Millisecond, seed + seedOffsetPeerDial + 1},
	}
	schedule := func(p backoff) []time.Duration {
		out := make([]time.Duration, 10)
		for i := range out {
			out[i] = p.delay(i)
		}
		return out
	}
	for i, p := range loops {
		si := schedule(p)
		// Replayable: the same policy draws the same schedule.
		for k, d := range schedule(p) {
			if si[k] != d {
				t.Fatalf("loop %d: schedule not deterministic at step %d", i, k)
			}
		}
		// Decorrelated: no two loops share a full schedule.
		for j, q := range loops[i+1:] {
			sj := schedule(q)
			same := true
			for k := range si {
				if si[k] != sj[k] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("loops %d and %d drew identical 10-step schedules; workers would retry in lockstep", i, i+1+j)
			}
		}
	}
	// Jitter stays inside the envelope: capped at maxBackoff, never below
	// half the un-jittered value.
	p := backoff{10 * time.Millisecond, seed}
	for i := 0; i < 10; i++ {
		full := 10 * time.Millisecond << uint(i)
		if full > maxBackoff {
			full = maxBackoff
		}
		if d := p.delay(i); d < full/2 || d > full {
			t.Fatalf("Backoff(%d) = %v outside [%v, %v]", i, d, full/2, full)
		}
	}
}

// TestBackoffSchedulePinned pins every loop's exact schedule at seed 42,
// attempts 0-9. The values are the ones the dial and rendezvous loops
// have always drawn (x2 per step, capped at 500ms, 50% downward
// splitmix64 jitter per (seed, attempt)); any change to the arithmetic
// shows here as a changed duration.
func TestBackoffSchedulePinned(t *testing.T) {
	const seed = 42
	for _, tc := range []struct {
		name string
		b    backoff
		want [10]time.Duration
	}{
		{"rendezvous", backoff{25 * time.Millisecond, seed}, [10]time.Duration{
			13119523, 38835303, 51111160, 171511837, 217259415,
			313321351, 478492059, 261885463, 251773588, 330152133}},
		{"coordinator dial", backoff{10 * time.Millisecond, seed + seedOffsetCoordinatorDial}, [10]time.Duration{
			7776900, 10605170, 37279404, 79210237, 132237946,
			288341516, 464952221, 461908318, 364781253, 425817902}},
		{"peer 0 dial", backoff{10 * time.Millisecond, seed + seedOffsetPeerDial + 0}, [10]time.Duration{
			7157244, 12412943, 29575488, 71579380, 95608932,
			206979280, 292672273, 473865166, 492237289, 401730319}},
		{"peer 1 dial", backoff{10 * time.Millisecond, seed + seedOffsetPeerDial + 1}, [10]time.Duration{
			5442480, 16805532, 39661450, 78755180, 125774156,
			195739199, 438632503, 307731877, 298896103, 292089876}},
	} {
		for i, want := range tc.want {
			if got := tc.b.delay(i); got != want {
				t.Errorf("%s: delay(%d) = %d, want %d", tc.name, i, got, want)
			}
		}
	}
}
