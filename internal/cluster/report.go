package cluster

import (
	"encoding/json"
	"fmt"
	"sort"

	"mndmst/internal/transport"
)

// PhaseStats accumulates one rank's time and traffic within a named phase.
type PhaseStats struct {
	Compute   float64
	Comm      float64
	BytesSent int64
	Msgs      int64
	// Wall is the real elapsed time spent in the phase.
	Wall float64
}

// RankStats is the final accounting of one rank.
type RankStats struct {
	Rank      int
	Total     float64 // final virtual clock
	Compute   float64
	Comm      float64
	BytesSent int64
	MsgsSent  int64
	Phases    map[string]PhaseStats
	// Wall is the rank's real elapsed runtime.
	Wall float64
}

// Report aggregates the whole run. The simulated execution time of the
// program is the maximum final clock across ranks, as it would be on a real
// machine.
type Report struct {
	Ranks []RankStats
}

func buildReport(ranks []*Rank) *Report {
	rep := &Report{Ranks: make([]RankStats, len(ranks))}
	for i, r := range ranks {
		ph := make(map[string]PhaseStats, len(r.phases))
		for name, p := range r.phases {
			ph[name] = *p
		}
		rep.Ranks[i] = RankStats{
			Rank:      r.id,
			Total:     r.now,
			Compute:   r.compute,
			Comm:      r.comm,
			BytesSent: r.bytesSent,
			MsgsSent:  r.msgsSent,
			Phases:    ph,
			Wall:      r.wallTotal,
		}
	}
	return rep
}

// ExecutionTime is the simulated makespan: the maximum final clock.
func (rep *Report) ExecutionTime() float64 {
	var m float64
	for _, r := range rep.Ranks {
		if r.Total > m {
			m = r.Total
		}
	}
	return m
}

// CommTime reports the communication time of the slowest-communicating
// rank, the quantity the paper's Table 3 lists as "Comm Time".
func (rep *Report) CommTime() float64 {
	var m float64
	for _, r := range rep.Ranks {
		if r.Comm > m {
			m = r.Comm
		}
	}
	return m
}

// ComputeTime reports the maximum per-rank compute time.
func (rep *Report) ComputeTime() float64 {
	var m float64
	for _, r := range rep.Ranks {
		if r.Compute > m {
			m = r.Compute
		}
	}
	return m
}

// TotalBytes reports the total payload bytes sent by all ranks.
func (rep *Report) TotalBytes() int64 {
	var s int64
	for _, r := range rep.Ranks {
		s += r.BytesSent
	}
	return s
}

// TotalMsgs reports the total number of messages sent by all ranks.
func (rep *Report) TotalMsgs() int64 {
	var s int64
	for _, r := range rep.Ranks {
		s += r.MsgsSent
	}
	return s
}

// PhaseNames returns the sorted union of phase names across ranks.
func (rep *Report) PhaseNames() []string {
	set := map[string]bool{}
	for _, r := range rep.Ranks {
		for name := range r.Phases {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PhaseTime returns the maximum across ranks of (compute, comm) time spent
// in the named phase — the per-phase bars of Figure 7.
func (rep *Report) PhaseTime(name string) (compute, comm float64) {
	for _, r := range rep.Ranks {
		if p, ok := r.Phases[name]; ok {
			if p.Compute > compute {
				compute = p.Compute
			}
			if p.Comm > comm {
				comm = p.Comm
			}
		}
	}
	return compute, comm
}

// PhaseWall returns the maximum real wall-clock time any rank spent in the
// named phase.
func (rep *Report) PhaseWall(name string) float64 {
	var wall float64
	for _, r := range rep.Ranks {
		if p, ok := r.Phases[name]; ok && p.Wall > wall {
			wall = p.Wall
		}
	}
	return wall
}

// WallTime reports the maximum per-rank real runtime.
func (rep *Report) WallTime() float64 {
	var m float64
	for _, r := range rep.Ranks {
		if r.Wall > m {
			m = r.Wall
		}
	}
	return m
}

// GatherReport assembles the full P-rank report at rank 0 of a distributed
// cluster: every other rank ships its local RankStats over the transport
// (tagged control traffic, after the timed program has finished) and
// receives nothing back. Rank 0 returns the merged report; other ranks and
// in-process clusters return rep unchanged. Must be called after Run, while
// the transport is still open.
func (c *Cluster) GatherReport(rep *Report) (*Report, error) {
	if len(c.local) == c.p {
		return rep, nil // in-process: already complete
	}
	ep := c.eps[0]
	if ep.Rank() != 0 {
		payload, err := json.Marshal(rep.Ranks)
		if err != nil {
			return rep, fmt.Errorf("cluster: encode report: %w", err)
		}
		if err := ep.Send(0, transport.Message{Tag: tagReport, Data: payload}); err != nil {
			return rep, rankLost("ship report", 0, err)
		}
		return rep, nil
	}
	merged := append([]RankStats(nil), rep.Ranks...)
	for src := 1; src < c.p; src++ {
		msg, err := ep.Recv(src)
		if err != nil {
			return rep, rankLost("gather report", src, err)
		}
		if msg.Tag != tagReport {
			return rep, fmt.Errorf("cluster: gather report from rank %d: unexpected tag %d", src, msg.Tag)
		}
		var rs []RankStats
		if err := json.Unmarshal(msg.Data, &rs); err != nil {
			return rep, fmt.Errorf("cluster: decode report from rank %d: %w", src, err)
		}
		merged = append(merged, rs...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Rank < merged[j].Rank })
	return &Report{Ranks: merged}, nil
}
