package trace_test

import (
	"context"
	"testing"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/trace"
)

func TestSummarizeKnownRecords(t *testing.T) {
	recs := []trace.Record{
		{Kind: "rank", Rank: 0, Total: 2.5, Wall: 0.5, BytesSent: 100, Msgs: 4},
		{Kind: "rank", Rank: 1, Total: 3.5, Wall: 0.25, BytesSent: 50, Msgs: 2},
		{Kind: "phase", Rank: 0, Phase: "merge", Compute: 1, Comm: 0.5, BytesSent: 60, Msgs: 3},
		{Kind: "phase", Rank: 1, Phase: "merge", Compute: 2, Comm: 0.25, BytesSent: 40, Msgs: 1},
		{Kind: "phase", Rank: 0, Phase: "gather", Compute: 0.1, Comm: 0, BytesSent: 0, Msgs: 0},
		{Kind: "future-kind", Rank: 9, Total: 99}, // must be ignored
	}
	s := trace.Summarize(recs)
	if s.Ranks != 2 {
		t.Fatalf("Ranks = %d, want 2", s.Ranks)
	}
	if s.SimSeconds != 3.5 || s.WallSeconds != 0.5 {
		t.Fatalf("seconds = (%g, %g), want (3.5, 0.5)", s.SimSeconds, s.WallSeconds)
	}
	if s.BytesSent != 150 || s.Msgs != 6 {
		t.Fatalf("traffic = (%d, %d), want (150, 6)", s.BytesSent, s.Msgs)
	}
	m := s.Phases["merge"]
	if m.Compute != 2 || m.Comm != 0.5 || m.BytesSent != 100 || m.Msgs != 4 {
		t.Fatalf("merge phase = %+v", m)
	}
	if _, ok := s.Phases["gather"]; !ok {
		t.Fatal("gather phase missing")
	}
}

// TestSummarizeMatchesReport pins the contract the benchmark harness
// relies on: Summarize over Records(rep) reproduces the Report accessors
// exactly.
func TestSummarizeMatchesReport(t *testing.T) {
	c := cluster.New(4, cost.CommModel{Latency: 1e-6, Bandwidth: 1e9})
	rep, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		r.SetPhase("work")
		r.Compute(float64(r.ID()+1) * 0.25)
		if r.ID() != 0 {
			r.Send(0, 7, make([]byte, 128))
		} else {
			for src := 1; src < r.P(); src++ {
				r.Recv(src, 7)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(trace.Records(rep))
	if s.Ranks != 4 {
		t.Fatalf("Ranks = %d, want 4", s.Ranks)
	}
	if s.SimSeconds != rep.ExecutionTime() {
		t.Fatalf("SimSeconds = %g, want %g", s.SimSeconds, rep.ExecutionTime())
	}
	if s.BytesSent != rep.TotalBytes() || s.Msgs != rep.TotalMsgs() {
		t.Fatalf("traffic = (%d, %d), want (%d, %d)",
			s.BytesSent, s.Msgs, rep.TotalBytes(), rep.TotalMsgs())
	}
	for _, name := range rep.PhaseNames() {
		wantC, wantM := rep.PhaseTime(name)
		p := s.Phases[name]
		if p.Compute != wantC || p.Comm != wantM {
			t.Fatalf("phase %s = (%g, %g), want (%g, %g)", name, p.Compute, p.Comm, wantC, wantM)
		}
	}
}
