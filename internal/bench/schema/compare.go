package schema

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
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

// TableDelta is the first difference in one changed table: where it is
// ("title", "header", "row 3", "note 1") and that part of each side.
type TableDelta struct {
	Table    string `json:"table"`
	Where    string `json:"where"`
	Baseline string `json:"baseline"`
	Current  string `json:"current"`
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
	// TableDeltas lists every table that changed, by its first
	// difference.
	TableDeltas []TableDelta `json:"table_deltas,omitempty"`
	// MissingTables were in the baseline but not the current run — a
	// regression, as a missing scenario is.
	MissingTables []string `json:"missing_tables,omitempty"`
	// NewTables are in the current run but not the baseline —
	// informational, as new scenarios are.
	NewTables      []string `json:"new_tables,omitempty"`
	Regressions    int      `json:"regressions"`
	Compared       int      `json:"compared"`
	TablesCompared int      `json:"tables_compared"`
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
	res.compareTables(baseline.Tables, current.Tables)
	return res, nil
}

// compareTables gates every baseline table against the current table of
// the same name, cell for cell.
func (res *Result) compareTables(baseline, current []Table) {
	cur := make(map[string]Table, len(current))
	for _, t := range current {
		cur[t.Name] = t
	}
	base := make(map[string]bool, len(baseline))
	for _, bt := range baseline {
		base[bt.Name] = true
		ct, ok := cur[bt.Name]
		if !ok {
			res.MissingTables = append(res.MissingTables, bt.Name)
			res.Regressions++
			continue
		}
		res.TablesCompared++
		if d, changed := firstDiff(bt, ct); changed {
			res.TableDeltas = append(res.TableDeltas, d)
			res.Regressions++
		}
	}
	for _, ct := range current {
		if !base[ct.Name] {
			res.NewTables = append(res.NewTables, ct.Name)
		}
	}
}

// firstDiff finds the first part of two same-named tables that differs:
// the title, the header, a row, or a note, in that order.
func firstDiff(b, c Table) (TableDelta, bool) {
	d := TableDelta{Table: b.Name}
	if b.Title != c.Title {
		d.Where, d.Baseline, d.Current = "title", b.Title, c.Title
		return d, true
	}
	if !slices.Equal(b.Header, c.Header) {
		d.Where, d.Baseline, d.Current = "header", cells(b.Header), cells(c.Header)
		return d, true
	}
	for i := range max(len(b.Rows), len(c.Rows)) {
		br, cr := at(b.Rows, i, nil), at(c.Rows, i, nil)
		if !slices.Equal(br, cr) {
			d.Where, d.Baseline, d.Current = fmt.Sprintf("row %d", i+1), cells(br), cells(cr)
			return d, true
		}
	}
	for i := range max(len(b.Notes), len(c.Notes)) {
		bn, cn := at(b.Notes, i, "(none)"), at(c.Notes, i, "(none)")
		if bn != cn {
			d.Where, d.Baseline, d.Current = fmt.Sprintf("note %d", i+1), bn, cn
			return d, true
		}
	}
	return d, false
}

// at returns s[i], or past when i is past the end of s.
func at[T any](s []T, i int, past T) T {
	if i < len(s) {
		return s[i]
	}
	return past
}

// cells renders a row for the report; an absent row renders as "(none)".
func cells(row []string) string {
	if row == nil {
		return "(none)"
	}
	return strings.Join(row, " | ")
}

// Report renders the per-metric comparison for humans (and CI logs):
// every regression, then the bookkeeping notes.
func (r *Result) Report(w io.Writer) {
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "bench compare: %s — %d metrics and %d tables compared, %d regressions\n",
		status, r.Compared, r.TablesCompared, r.Regressions)
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
	for _, t := range r.MissingTables {
		fmt.Fprintf(w, "  REGRESSION %-44s table missing from current run\n", t)
	}
	for _, d := range r.TableDeltas {
		fmt.Fprintf(w, "  REGRESSION %-44s %s: %s -> %s\n", d.Table, d.Where, d.Baseline, d.Current)
	}
	for _, s := range r.NewScenarios {
		fmt.Fprintf(w, "  note       %-44s new scenario (not in baseline; re-bless to track)\n", s)
	}
	for _, t := range r.NewTables {
		fmt.Fprintf(w, "  note       %-44s new table (not in baseline; re-bless to track)\n", t)
	}
}
