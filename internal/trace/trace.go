// Package trace exports the simulated-run accounting (cluster.Report) in
// machine-readable and human-readable forms: JSON-lines event records for
// downstream analysis and an aligned text profile with per-rank and
// per-phase breakdowns — the observability surface a
// production system would ship with.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"mndmst/internal/cluster"
)

// Record is one JSONL line: either a per-rank summary or a per-rank,
// per-phase breakdown entry. Wall is the measured real elapsed time; the
// other seconds are simulated.
type Record struct {
	Kind      string  `json:"kind"` // "rank" or "phase"
	Rank      int     `json:"rank"`
	Phase     string  `json:"phase,omitempty"`
	Total     float64 `json:"total_s,omitempty"`
	Compute   float64 `json:"compute_s"`
	Comm      float64 `json:"comm_s"`
	BytesSent int64   `json:"bytes_sent"`
	Msgs      int64   `json:"msgs"`
	Wall      float64 `json:"wall_s,omitempty"`
}

// Records flattens a report into the JSONL record sequence — one "rank"
// record per rank followed by its sorted "phase" records — without
// serializing. The serve layer embeds the slice directly into HTTP job
// responses (per-job report export); WriteJSONL streams the same records
// to a file.
func Records(rep *cluster.Report) []Record {
	var out []Record
	for _, r := range rep.Ranks {
		out = append(out, Record{
			Kind: "rank", Rank: r.Rank,
			Total: r.Total, Compute: r.Compute, Comm: r.Comm,
			BytesSent: r.BytesSent, Msgs: r.MsgsSent,
			Wall: r.Wall,
		})
		phases := make([]string, 0, len(r.Phases))
		for name := range r.Phases {
			phases = append(phases, name)
		}
		sort.Strings(phases)
		for _, name := range phases {
			p := r.Phases[name]
			out = append(out, Record{
				Kind: "phase", Rank: r.Rank, Phase: name,
				Compute: p.Compute, Comm: p.Comm,
				BytesSent: p.BytesSent, Msgs: p.Msgs,
				Wall: p.Wall,
			})
		}
	}
	return out
}

// WriteJSONL emits one Record per rank plus one per (rank, phase) pair.
func WriteJSONL(w io.Writer, rep *cluster.Report) error {
	enc := json.NewEncoder(w)
	for _, rec := range Records(rep) {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Profile renders an aligned text view: per-rank totals with a load-balance
// summary and the per-phase maxima, each with its measured wall time beside
// the simulated seconds.
func Profile(rep *cluster.Report) string {
	var b strings.Builder
	exec := rep.ExecutionTime()
	fmt.Fprintf(&b, "simulated execution: %.6fs (compute max %.6fs, comm max %.6fs)\n",
		exec, rep.ComputeTime(), rep.CommTime())
	fmt.Fprintf(&b, "real execution: %.6fs wall (max across ranks)\n", rep.WallTime())
	fmt.Fprintf(&b, "traffic: %d messages, %d bytes\n", rep.TotalMsgs(), rep.TotalBytes())

	// Load balance: busiest vs average total.
	var sum float64
	for _, r := range rep.Ranks {
		sum += r.Total
	}
	avg := sum / float64(len(rep.Ranks))
	if avg > 0 {
		fmt.Fprintf(&b, "load balance: makespan/avg = %.2f\n", exec/avg)
	}

	b.WriteString("rank  total(s)    compute(s)  comm(s)     wall(s)     bytes\n")
	for _, r := range rep.Ranks {
		fmt.Fprintf(&b, "%4d  %-10.6f  %-10.6f  %-10.6f  %-10.6f  %d\n",
			r.Rank, r.Total, r.Compute, r.Comm, r.Wall, r.BytesSent)
	}
	b.WriteString("phase breakdown (max across ranks):\n")
	for _, name := range rep.PhaseNames() {
		c, m := rep.PhaseTime(name)
		fmt.Fprintf(&b, "  %-16s compute %-10.6f comm %-10.6f wall %-10.6f\n",
			name, c, m, rep.PhaseWall(name))
	}
	return b.String()
}
