package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"mndmst/internal/cluster"
	"mndmst/internal/cost"
	"mndmst/internal/obs"
)

// sampleReport runs a tiny cluster program to get a real report.
func sampleReport(t *testing.T) *cluster.Report {
	t.Helper()
	c := cluster.New(3, cost.CommModel{Latency: 1e-6, Bandwidth: 1e9})
	rep, err := c.Run(context.Background(), func(r *cluster.Rank) error {
		r.SetPhase("alpha")
		r.Compute(0.001 * float64(r.ID()+1))
		r.SetPhase("beta")
		if r.ID() == 0 {
			r.Send(1, 0, make([]byte, 512))
		}
		if r.ID() == 1 {
			r.Recv(0, 0)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// decodeJSONL reads WriteJSONL output back, one Record per JSON value.
func decodeJSONL(t *testing.T, r io.Reader) []Record {
	t.Helper()
	dec := json.NewDecoder(r)
	var out []Record
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

func TestJSONLRoundTrip(t *testing.T) {
	rep := sampleReport(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rep); err != nil {
		t.Fatal(err)
	}
	recs := decodeJSONL(t, &buf)
	rankRecs, phaseRecs := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case "rank":
			rankRecs++
			if r.Total <= 0 {
				t.Fatalf("rank record without total: %+v", r)
			}
		case "phase":
			phaseRecs++
			if r.Phase == "" {
				t.Fatalf("phase record without name: %+v", r)
			}
		default:
			t.Fatalf("unknown kind %q", r.Kind)
		}
	}
	if rankRecs != 3 {
		t.Fatalf("rank records=%d", rankRecs)
	}
	if phaseRecs < 6 { // at least alpha+beta per rank
		t.Fatalf("phase records=%d", phaseRecs)
	}
}

// TestRecordsMatchesJSONL: the in-memory record sequence the serve layer
// embeds into job responses is exactly what WriteJSONL serializes — one
// flattening, two transports.
func TestRecordsMatchesJSONL(t *testing.T) {
	rep := sampleReport(t)
	recs := Records(rep)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, rep); err != nil {
		t.Fatal(err)
	}
	streamed := decodeJSONL(t, &buf)
	if len(recs) != len(streamed) {
		t.Fatalf("Records returned %d records, WriteJSONL emitted %d", len(recs), len(streamed))
	}
	for i := range recs {
		if recs[i] != streamed[i] {
			t.Fatalf("record %d diverges:\n in-memory %+v\n  streamed %+v", i, recs[i], streamed[i])
		}
	}
	// Per rank: the "rank" record leads, its phases follow sorted by name.
	lastRank, lastPhase := -1, ""
	for _, r := range recs {
		switch r.Kind {
		case "rank":
			if r.Rank <= lastRank {
				t.Fatalf("rank records out of order: %d after %d", r.Rank, lastRank)
			}
			lastRank, lastPhase = r.Rank, ""
		case "phase":
			if r.Rank != lastRank || r.Phase <= lastPhase {
				t.Fatalf("phase record out of order: %+v", r)
			}
			lastPhase = r.Phase
		}
	}
}

// TestProfileGolden pins the exact rendering of the wall-clock fixture:
// any drift in alignment, column set, or number formatting is a visible
// diff here before it is a surprise in a terminal.
func TestProfileGolden(t *testing.T) {
	const want = "simulated execution: 0.004000s (compute max 0.003000s, comm max 0.001000s)\n" +
		"real execution: 0.250000s wall (max across ranks)\n" +
		"traffic: 1 messages, 512 bytes\n" +
		"load balance: makespan/avg = 1.33\n" +
		"rank  total(s)    compute(s)  comm(s)     wall(s)     bytes\n" +
		"   0  0.004000    0.003000    0.001000    0.250000    512\n" +
		"   1  0.002000    0.002000    0.000000    0.220000    0\n" +
		"phase breakdown (max across ranks):\n" +
		"  alpha            compute 0.003000   comm 0.000000   wall 0.220000  \n" +
		"  beta             compute 0.000000   comm 0.001000   wall 0.050000  \n"
	if got := Profile(wallReport()); got != want {
		t.Fatalf("profile rendering drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestProfileRendering(t *testing.T) {
	rep := sampleReport(t)
	p := Profile(rep)
	for _, want := range []string{"simulated execution", "load balance", "alpha", "beta", "rank"} {
		if !strings.Contains(p, want) {
			t.Fatalf("profile missing %q:\n%s", want, p)
		}
	}
}

// wallReport fabricates the report of a multi-process run: every rank and
// phase carries a real wall-clock measurement.
func wallReport() *cluster.Report {
	return &cluster.Report{Ranks: []cluster.RankStats{
		{
			Rank: 0, Total: 0.004, Compute: 0.003, Comm: 0.001,
			BytesSent: 512, MsgsSent: 1, Wall: 0.25,
			Phases: map[string]cluster.PhaseStats{
				"alpha": {Compute: 0.003, Wall: 0.2},
				"beta":  {Comm: 0.001, BytesSent: 512, Msgs: 1, Wall: 0.05},
			},
		},
		{
			Rank: 1, Total: 0.002, Compute: 0.002,
			Wall: 0.22,
			Phases: map[string]cluster.PhaseStats{
				"alpha": {Compute: 0.002, Wall: 0.22},
			},
		},
	}}
}

// TestProfileWallColumns checks that a report with real wall clocks grows
// the wall column in the header, the per-rank rows, and the phase
// breakdown, with the rank maxima surfaced.
func TestProfileWallColumns(t *testing.T) {
	rep := wallReport()
	p := Profile(rep)
	for _, want := range []string{
		"real execution: 0.250000s wall",
		"wall(s)",
		"0.250000",
		"0.220000",
		"wall",
	} {
		if !strings.Contains(p, want) {
			t.Fatalf("wall profile missing %q:\n%s", want, p)
		}
	}
	// Phase breakdown reports the per-phase maximum across ranks.
	if got := rep.PhaseWall("alpha"); got != 0.22 {
		t.Fatalf("PhaseWall(alpha)=%g, want 0.22", got)
	}
}

// TestJSONLWallField checks wall_s round-trips its values and that an
// in-process run, which measures its phases like any other, emits it.
func TestJSONLWallField(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, wallReport()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"wall_s"`) {
		t.Fatalf("wall report JSONL lacks wall_s:\n%s", buf.String())
	}
	recs := decodeJSONL(t, &buf)
	var rank0Wall, alphaMax float64
	for _, r := range recs {
		if r.Kind == "rank" && r.Rank == 0 {
			rank0Wall = r.Wall
		}
		if r.Kind == "phase" && r.Phase == "alpha" && r.Wall > alphaMax {
			alphaMax = r.Wall
		}
	}
	if rank0Wall != 0.25 || alphaMax != 0.22 {
		t.Fatalf("wall round-trip: rank0=%g alphaMax=%g", rank0Wall, alphaMax)
	}

	buf.Reset()
	if err := WriteJSONL(&buf, sampleReport(t)); err != nil {
		t.Fatal(err)
	}
	for _, r := range decodeJSONL(t, &buf) {
		if r.Kind == "rank" && r.Wall <= 0 {
			t.Fatalf("in-process rank record without wall_s: %+v", r)
		}
	}
}

// TestPublishMatchesSummarize: Publish exports a report's totals as gauges,
// seconds as maxima and traffic as sums across ranks, per phase too, and
// PublishRank labels the process's rank.
func TestPublishMatchesSummarize(t *testing.T) {
	reg := obs.NewRegistry()
	Publish(reg, nil) // no report, nothing published
	Publish(nil, wallReport())
	Publish(reg, wallReport())
	PublishRank(reg, 2)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"mndmst_run_ranks":                                2,
		"mndmst_run_sim_seconds":                          0.004,
		"mndmst_run_wall_seconds":                         0.25,
		"mndmst_run_bytes_sent":                           512,
		"mndmst_run_msgs":                                 1,
		`mndmst_run_phase_compute_seconds{phase="alpha"}`: 0.003,
		`mndmst_run_phase_comm_seconds{phase="alpha"}`:    0,
		`mndmst_run_phase_wall_seconds{phase="alpha"}`:    0.22,
		`mndmst_run_phase_bytes_sent{phase="alpha"}`:      0,
		`mndmst_run_phase_compute_seconds{phase="beta"}`:  0,
		`mndmst_run_phase_comm_seconds{phase="beta"}`:     0.001,
		`mndmst_run_phase_wall_seconds{phase="beta"}`:     0.05,
		`mndmst_run_phase_bytes_sent{phase="beta"}`:       512,
		`mndmst_run_phase_msgs{phase="beta"}`:             1,
		`mndmst_rank_info{rank="2"}`:                      1,
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s = %g (present %t), want %g", k, g, ok, v)
		}
	}
}
