package trace

// PhaseSummary aggregates one phase across ranks with the same semantics
// the Report accessors use: seconds are maxima (makespan), traffic is
// summed.
type PhaseSummary struct {
	Compute   float64
	Comm      float64
	Wall      float64
	BytesSent int64
	Msgs      int64
}

// Summary is the cross-rank aggregation of a flattened record sequence —
// the single source of truth shared by the metrics gauges (Publish) and
// the benchmark harness, so a run's scraped, benched, and reported numbers
// can never disagree by construction.
type Summary struct {
	Ranks       int
	SimSeconds  float64 // max per-rank total (makespan)
	WallSeconds float64 // max per-rank wall (0 for in-process runs)
	BytesSent   int64   // summed across ranks
	Msgs        int64   // summed across ranks
	Phases      map[string]PhaseSummary
}

// Summarize aggregates records produced by Records. Unknown
// record kinds are ignored, so the aggregation is forward-compatible with
// files written by a newer emitter.
func Summarize(recs []Record) Summary {
	s := Summary{Phases: map[string]PhaseSummary{}}
	for _, r := range recs {
		switch r.Kind {
		case "rank":
			s.Ranks++
			s.SimSeconds = max(s.SimSeconds, r.Total)
			s.WallSeconds = max(s.WallSeconds, r.Wall)
			s.BytesSent += r.BytesSent
			s.Msgs += r.Msgs
		case "phase":
			p := s.Phases[r.Phase]
			p.Compute = max(p.Compute, r.Compute)
			p.Comm = max(p.Comm, r.Comm)
			p.Wall = max(p.Wall, r.Wall)
			p.BytesSent += r.BytesSent
			p.Msgs += r.Msgs
			s.Phases[r.Phase] = p
		}
	}
	return s
}
