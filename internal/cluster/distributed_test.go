package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mndmst/internal/transport"
)

// distResult is one worker's outcome of a distributed run.
type distResult struct {
	rank int
	rep  *Report // gathered report (P ranks at rank 0, local elsewhere)
	err  error
}

// runOverTCP executes fn as a real p-process-style cluster over loopback
// TCP: one goroutine per rank, each with its own transport endpoint —
// exactly the code path OS-separated workers take, minus the fork.
func runOverTCP(t *testing.T, p int, cfg transport.TCPConfig, fn func(r *Rank) error) []distResult {
	t.Helper()
	coord, err := transport.NewCoordinator("127.0.0.1:0", p, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()
	cfg.Coordinator = coord.Addr()

	results := make([]distResult, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			ep, err := transport.DialTCP(cfg)
			if err != nil {
				results[slot] = distResult{rank: -1, err: err}
				return
			}
			defer ep.Close()
			c := NewDistributed(ep, testComm())
			rep, err := c.Run(context.Background(), fn)
			if err != nil {
				results[slot] = distResult{rank: ep.Rank(), rep: rep, err: err}
				return
			}
			rep, err = c.GatherReport(rep)
			results[slot] = distResult{rank: ep.Rank(), rep: rep, err: err}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("distributed run deadlocked")
	}
	byRank := make([]distResult, p)
	for _, res := range results {
		if res.rank < 0 {
			t.Fatalf("worker failed to join: %v", res.err)
		}
		byRank[res.rank] = res
	}
	return byRank
}

// rootReport returns rank 0's gathered report, failing on any rank error.
func rootReport(t *testing.T, results []distResult) *Report {
	t.Helper()
	for _, res := range results {
		if res.err != nil {
			t.Fatalf("rank %d: %v", res.rank, res.err)
		}
	}
	return results[0].rep
}

func TestDistributedAllreduceMatchesInProcess(t *testing.T) {
	const p = 4
	program := func(r *Rank) error {
		r.Compute(float64(r.ID()) * 0.001)
		got := r.Allreduce([]int64{int64(r.ID()), int64(r.ID() * r.ID()), 1}, OpSum)
		if got[0] != 6 || got[1] != 14 || got[2] != 4 {
			return fmt.Errorf("rank %d: allreduce %v", r.ID(), got)
		}
		if mx := r.AllreduceScalar(int64(10*r.ID()), OpMax); mx != 30 {
			return fmt.Errorf("rank %d: max %d", r.ID(), mx)
		}
		if mn := r.AllreduceScalar(int64(10*r.ID()), OpMin); mn != 0 {
			return fmt.Errorf("rank %d: min %d", r.ID(), mn)
		}
		r.Barrier()
		r.Compute(0.002)
		return nil
	}
	inproc, err := New(p, testComm()).Run(context.Background(), program)
	if err != nil {
		t.Fatal(err)
	}
	rep := rootReport(t, runOverTCP(t, p, transport.TCPConfig{}, program))

	if len(rep.Ranks) != p {
		t.Fatalf("gathered %d ranks", len(rep.Ranks))
	}
	// The acceptance bar: virtual clocks agree bit for bit across backends.
	if rep.ExecutionTime() != inproc.ExecutionTime() {
		t.Fatalf("exec %v (tcp) != %v (in-process)", rep.ExecutionTime(), inproc.ExecutionTime())
	}
	if rep.CommTime() != inproc.CommTime() || rep.ComputeTime() != inproc.ComputeTime() {
		t.Fatalf("comm/compute diverge: (%v,%v) vs (%v,%v)",
			rep.CommTime(), rep.ComputeTime(), inproc.CommTime(), inproc.ComputeTime())
	}
	// Both backends measure real time; only the virtual clocks must agree.
	if rep.WallTime() <= 0 {
		t.Fatal("distributed report lost wall clocks")
	}
	if inproc.WallTime() <= 0 {
		t.Fatal("in-process report carries no wall clocks")
	}
}

func TestDistributedGhostExchangeMultiPhase(t *testing.T) {
	const p = 3
	const rounds = 4
	program := func(r *Rank) error {
		r.SetPhase("indComp")
		r.Compute(0.001 * float64(r.ID()+1))
		r.SetPhase("merge")
		for round := 0; round < rounds; round++ {
			next := (r.ID() + 1) % p
			prev := (r.ID() + p - 1) % p
			payload := bytes.Repeat([]byte{byte(r.ID()), byte(round)}, 500)
			r.Send(next, round, payload)
			got := r.Recv(prev, round)
			if len(got) != 1000 || got[0] != byte(prev) || got[1] != byte(round) {
				return fmt.Errorf("rank %d round %d: bad ghost payload", r.ID(), round)
			}
			r.Barrier()
		}
		r.SetPhase("postProcess")
		r.Compute(0.0005)
		return nil
	}
	inproc, err := New(p, testComm()).Run(context.Background(), program)
	if err != nil {
		t.Fatal(err)
	}
	rep := rootReport(t, runOverTCP(t, p, transport.TCPConfig{}, program))

	if got, want := rep.PhaseNames(), inproc.PhaseNames(); len(got) != len(want) {
		t.Fatalf("phases %v vs %v", got, want)
	}
	for _, name := range inproc.PhaseNames() {
		dc, dm := rep.PhaseTime(name)
		ic, im := inproc.PhaseTime(name)
		if dc != ic || dm != im {
			t.Fatalf("phase %s: (%v,%v) vs (%v,%v)", name, dc, dm, ic, im)
		}
	}
	if rep.TotalBytes() != inproc.TotalBytes() || rep.TotalMsgs() != inproc.TotalMsgs() {
		t.Fatalf("traffic diverges: %d/%d vs %d/%d",
			rep.TotalBytes(), rep.TotalMsgs(), inproc.TotalBytes(), inproc.TotalMsgs())
	}
}

func TestDistributedPeerDeathMidMergeSurfacesError(t *testing.T) {
	const p = 3
	cfg := transport.TCPConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       1 * time.Second,
	}
	start := time.Now()
	results := runOverTCP(t, p, cfg, func(r *Rank) error {
		r.SetPhase("merge")
		if r.ID() == 2 {
			// The victim dies before sending: its process "crashes", the
			// deferred endpoint Close tears its connections down.
			return fmt.Errorf("simulated crash on rank 2")
		}
		if r.ID() == 1 {
			r.Send(0, 42, []byte("survivor data"))
			return nil
		}
		if got := r.Recv(1, 42); string(got) != "survivor data" {
			return fmt.Errorf("live pair corrupted: %q", got)
		}
		r.Recv(2, 43) // never arrives: must error out, not hang
		return fmt.Errorf("recv from dead rank returned")
	})
	elapsed := time.Since(start)

	if results[2].err == nil || !strings.Contains(results[2].err.Error(), "simulated crash") {
		t.Fatalf("victim error: %v", results[2].err)
	}
	err0 := results[0].err
	if err0 == nil {
		t.Fatal("rank 0 did not observe the peer death")
	}
	if !strings.Contains(err0.Error(), "cluster: rank 0") || !strings.Contains(err0.Error(), "peer rank 2 dead") {
		t.Fatalf("rank 0 error not descriptive: %v", err0)
	}
	// Rank 1's program succeeded; its report gather may or may not race
	// rank 0's teardown, but any failure must be a transport death, not a
	// computation error.
	if err1 := results[1].err; err1 != nil &&
		!strings.Contains(err1.Error(), "dead") && !strings.Contains(err1.Error(), "closed") {
		t.Fatalf("rank 1 failed outside the gather: %v", err1)
	}
	// Well under the deadlock horizon: close-detection plus one heartbeat
	// window, not test-timeout minutes.
	if elapsed > 15*time.Second {
		t.Fatalf("death detection took %v", elapsed)
	}
}

func TestDistributedSingleRank(t *testing.T) {
	rep := rootReport(t, runOverTCP(t, 1, transport.TCPConfig{}, func(r *Rank) error {
		r.SetPhase("solo")
		r.Compute(0.5)
		r.Send(0, 1, []byte("self"))
		if got := r.Recv(0, 1); string(got) != "self" {
			return fmt.Errorf("self payload %q", got)
		}
		r.Barrier()
		if v := r.AllreduceScalar(7, OpSum); v != 7 {
			return fmt.Errorf("allreduce %d", v)
		}
		return nil
	}))
	if len(rep.Ranks) != 1 || rep.ComputeTime() != 0.5 {
		t.Fatalf("ranks=%d compute=%v", len(rep.Ranks), rep.ComputeTime())
	}
}
