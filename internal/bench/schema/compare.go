package schema

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// MetricDelta is one changed metric. Records hold deterministic simulated
// clocks, so every change is a regression: a real behaviour change to
// accept (by re-blessing the baseline) or fix.
type MetricDelta struct {
	Scenario string  `json:"scenario"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// RelChange is (current-baseline)/baseline, signed; ±Inf when the
	// baseline is zero and the current value is not.
	RelChange float64 `json:"rel_change"`
}

// Result is the outcome of one baseline comparison.
type Result struct {
	// Deltas lists every metric whose value changed, by scenario/metric
	// name.
	Deltas []MetricDelta `json:"deltas,omitempty"`
	// MissingScenarios were in the baseline but not the current run —
	// always a regression (a silently dropped scenario must not pass).
	MissingScenarios []string `json:"missing_scenarios,omitempty"`
	// NewScenarios are in the current run but not the baseline —
	// informational; bless a new baseline to start tracking them.
	NewScenarios []string `json:"new_scenarios,omitempty"`
	// MissingMetrics were in a baseline scenario but not the current one.
	MissingMetrics []string `json:"missing_metrics,omitempty"`
	Regressions    int      `json:"regressions"`
	Compared       int      `json:"compared"`
}

// Passed reports whether the comparison found no regressions.
func (r *Result) Passed() bool { return r.Regressions == 0 }

// Compare gates current against baseline exactly. Both files must share
// schema version, suite, and scale — a mismatch is a usage error, not a
// regression, because the numbers are incomparable.
func Compare(baseline, current *File) (*Result, error) {
	if err := baseline.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := current.Validate(); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	if baseline.Suite != current.Suite {
		return nil, fmt.Errorf("suite mismatch: baseline %q vs current %q", baseline.Suite, current.Suite)
	}
	if baseline.Scale != current.Scale {
		return nil, fmt.Errorf("scale mismatch: baseline %g vs current %g (sim metrics are scale-specific)",
			baseline.Scale, current.Scale)
	}

	cur := make(map[string]Scenario, len(current.Scenarios))
	for _, s := range current.Scenarios {
		cur[s.Name] = s
	}
	base := make(map[string]bool, len(baseline.Scenarios))

	res := &Result{}
	for _, bs := range baseline.Scenarios {
		base[bs.Name] = true
		cs, ok := cur[bs.Name]
		if !ok {
			res.MissingScenarios = append(res.MissingScenarios, bs.Name)
			res.Regressions++
			continue
		}
		metrics := make([]string, 0, len(bs.Metrics))
		for m := range bs.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			bv := bs.Metrics[m]
			cv, ok := cs.Metrics[m]
			if !ok {
				res.MissingMetrics = append(res.MissingMetrics, bs.Name+"."+m)
				res.Regressions++
				continue
			}
			res.Compared++
			if bv == cv {
				continue
			}
			rel := math.Inf(int(math.Copysign(1, cv-bv)))
			if bv != 0 {
				rel = (cv - bv) / bv
			}
			res.Regressions++
			res.Deltas = append(res.Deltas, MetricDelta{
				Scenario: bs.Name, Metric: m,
				Baseline: bv, Current: cv, RelChange: rel,
			})
		}
	}
	for _, cs := range current.Scenarios {
		if !base[cs.Name] {
			res.NewScenarios = append(res.NewScenarios, cs.Name)
		}
	}
	sort.Slice(res.Deltas, func(i, j int) bool {
		a, b := res.Deltas[i], res.Deltas[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		return a.Metric < b.Metric
	})
	return res, nil
}

// Report renders the per-metric comparison for humans (and CI logs):
// every regression, then the bookkeeping notes.
func (r *Result) Report(w io.Writer) {
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "bench compare: %s — %d metrics compared, %d regressions\n",
		status, r.Compared, r.Regressions)
	for _, s := range r.MissingScenarios {
		fmt.Fprintf(w, "  REGRESSION %-44s scenario missing from current run\n", s)
	}
	for _, m := range r.MissingMetrics {
		fmt.Fprintf(w, "  REGRESSION %-44s metric missing from current run\n", m)
	}
	for _, d := range r.Deltas {
		fmt.Fprintf(w, "  REGRESSION %-44s %s: %g -> %g (%+.2f%%)\n",
			d.Scenario, d.Metric, d.Baseline, d.Current, 100*d.RelChange)
	}
	for _, s := range r.NewScenarios {
		fmt.Fprintf(w, "  note       %-44s new scenario (not in baseline; re-bless to track)\n", s)
	}
}
