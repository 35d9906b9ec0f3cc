// Package bench is the repo's benchmark framework behind cmd/mndmst-bench:
// one Runner with a per-invocation graph cache, and one ordered registry
// of named experiments in two suites.
//
// Suite "core" is the deterministic perf-regression gate: core FindMSF
// runs across the Table 2 workload profiles and rank counts, distributed
// runs over both the in-process Mem transport and real loopback TCP, the
// merge-phase communication patterns, the job service in both cache
// regimes, and the analytics applications. Each scenario records the
// α–β/device-model simulated clocks, serialized to the canonical schema
// (internal/bench/schema). They are bit-stable across runs, so the
// committed baseline diffs exactly and ANY change to a hot path's
// simulated cost fails the gate until it is blessed. The same record
// carries every paper experiment's table at the record's scale, so a
// change to any modeled figure is gated and blessed the same way.
//
// Every core-run scenario additionally cross-checks itself against the
// observability layer: the run's report is published to a fresh metrics
// registry and scraped back through the canonical text encoding, and the
// scraped gauges must equal the report's accessors exactly — so the bench,
// the trace, and a live /metrics scrape can never silently disagree.
//
// Suite "paper" regenerates every table and figure of the paper's
// evaluation (§5) plus the design ablations and extensions. Each
// experiment builds its workload from the Table 2 profiles, runs the
// relevant systems on the simulated machines, and returns a Table whose
// rows mirror the paper's rows/series. Absolute simulated seconds are not
// expected to match the paper's wall-clock numbers (the workloads are
// ~1/1000 scale); the comparisons — who wins, by what factor, where the
// crossovers fall — are.
package bench

import (
	"context"
	"fmt"
	"regexp"

	"mndmst/internal/bench/schema"
	"mndmst/internal/cluster"
	"mndmst/internal/core"
	"mndmst/internal/cost"
	"mndmst/internal/gen"
	"mndmst/internal/graph"
	"mndmst/internal/hypar"
	"mndmst/internal/obs"
	"mndmst/internal/trace"
)

// Suite names.
const (
	SuiteCore  = "core"
	SuitePaper = "paper"
)

// Default workload scales. coreScale is the one the committed baseline
// is recorded at, core scenarios and paper tables alike: small enough that
// the whole record runs in CI seconds, large enough that every phase does
// real work. A paper-suite run defaults to the reproduction size.
const (
	coreScale  = 0.05
	paperScale = 1.0
)

// paperDefault selects what a paper run without a filter regenerates: the
// §5 tables and figures. Ablations and extensions run when a filter names
// them; the record runs them all.
var paperDefault = regexp.MustCompile(`^(Table|Figure)`)

// Experiment is one named entry of a suite. A core scenario sets Metrics,
// its deterministic sim metrics; a paper experiment sets Table.
type Experiment struct {
	// Name is the stable identifier baselines and selections key on.
	Name    string
	Metrics func(*Runner) (map[string]float64, error)
	Table   func(*Runner) (*Table, error)
}

// Experiments returns the named suite in its stable order, or nil for an
// unknown suite. Core names are baseline keys: renaming one is a
// baseline-breaking change and must be blessed like a regression.
func Experiments(suite string) []Experiment {
	switch suite {
	case SuiteCore:
		return coreScenarios()
	case SuitePaper:
		return paperExperiments()
	}
	return nil
}

// Names lists the named suite in order.
func Names(suite string) []string {
	var out []string
	for _, e := range Experiments(suite) {
		out = append(out, e.Name)
	}
	return out
}

// Config configures one invocation.
type Config struct {
	// Scale is the workload scale (default 0.05 for the record, 1.0 for
	// a paper run).
	Scale float64
	// Filter, when non-nil, selects experiments by name (default: every
	// core scenario and paper experiment for the record, the tables and
	// figures for a paper run).
	Filter *regexp.Regexp
	// Verify cross-checks every MND-MST forest against sequential Kruskal.
	Verify bool
	// Logf, when non-nil, receives one progress line per experiment.
	Logf func(format string, args ...any)
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// selected returns the experiments of suite that c.Filter selects, in
// registry order; without a filter, those def selects (all when nil).
func (c Config) selected(suite string, def *regexp.Regexp) []Experiment {
	filter := def
	if c.Filter != nil {
		filter = c.Filter
	}
	var sel []Experiment
	for _, e := range Experiments(suite) {
		if filter == nil || filter.MatchString(e.Name) {
			sel = append(sel, e)
		}
	}
	return sel
}

// runner returns a fresh runner at c.Scale, or at scale when c sets none.
func (c Config) runner(scale float64) *Runner {
	if c.Scale > 0 {
		scale = c.Scale
	}
	return NewRunner(scale, c.Verify)
}

// Run executes the selected core scenarios and paper experiments, at the
// record's scale unless cfg sets one, and returns their record: every
// scenario's metrics and every experiment's table.
func Run(cfg Config) (*schema.File, error) {
	scenarios, tables := cfg.selected(SuiteCore, nil), cfg.selected(SuitePaper, nil)
	if len(scenarios)+len(tables) == 0 {
		return nil, fmt.Errorf("bench: no experiment matched the filter")
	}
	r := cfg.runner(coreScale)
	f := &schema.File{
		Schema:    schema.Version,
		Mode:      schema.ModeSim,
		Suite:     SuiteCore,
		Scale:     r.scale,
		Scenarios: make([]schema.Scenario, 0, len(scenarios)),
		Tables:    make([]schema.Table, 0, len(tables)),
	}
	for _, e := range scenarios {
		metrics, err := e.Metrics(r)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", e.Name, err)
		}
		cfg.logf("%-44s ok (%d metrics)", e.Name, len(metrics))
		f.Scenarios = append(f.Scenarios, schema.Scenario{Name: e.Name, Metrics: metrics})
	}
	for _, e := range tables {
		t, err := e.Table(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		cfg.logf("%-44s ok (%d rows)", e.Name, len(t.Rows))
		f.Tables = append(f.Tables, t.record(e.Name))
	}
	return f, nil
}

// RunPaper executes the selected paper experiments in order and hands
// each table to emit as soon as it is built.
func RunPaper(cfg Config, emit func(*Table) error) error {
	sel := cfg.selected(SuitePaper, paperDefault)
	if len(sel) == 0 {
		return fmt.Errorf("bench: no paper experiment matched the filter")
	}
	r := cfg.runner(paperScale)
	for _, e := range sel {
		t, err := e.Table(r)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		cfg.logf("%-44s ok (%d rows)", e.Name, len(t.Rows))
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

// Runner carries the per-invocation state experiments share: the workload
// scale, the verify switch, and a graph cache, so experiments over the
// same profile generate the workload once.
type Runner struct {
	scale  float64
	verify bool
	graphs map[string]*graph.EdgeList
}

// NewRunner returns a runner at the given workload scale with an empty
// graph cache; verify cross-checks every MND-MST forest against Kruskal.
func NewRunner(scale float64, verify bool) *Runner {
	return &Runner{scale: scale, verify: verify, graphs: map[string]*graph.EdgeList{}}
}

// Graph returns the named Table 2 profile at the runner's scale, memoized
// per runner.
func (r *Runner) Graph(profile string) (*graph.EdgeList, error) {
	if el, ok := r.graphs[profile]; ok {
		return el, nil
	}
	p, err := gen.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	el := p.Generate(r.scale)
	r.graphs[profile] = el
	return el, nil
}

// runMND runs MND-MST on el and, when the runner verifies, checks the
// forest against Kruskal.
func (r *Runner) runMND(el *graph.EdgeList, p int, m cost.Machine, cfg hypar.Config, gpu bool) (*core.Result, error) {
	res, err := core.Run(context.Background(), el, p, m, cfg, gpu)
	if err != nil {
		return nil, err
	}
	if r.verify {
		if err := core.VerifyAgainstKruskal(el, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// crossCheckGauges publishes rep into a fresh registry, scrapes it back
// through the canonical text encoding, and verifies the run gauges equal
// the report accessors exactly. This is the core suite's obs cross-check:
// a drifting aggregation or a broken encoder fails the bench run itself.
func crossCheckGauges(rep *cluster.Report) error {
	reg := obs.NewRegistry()
	trace.Publish(reg, rep)
	snap, err := reg.Snapshot()
	if err != nil {
		return fmt.Errorf("obs cross-check: scrape: %w", err)
	}
	checks := []struct {
		key  string
		want float64
	}{
		{"mndmst_run_ranks", float64(len(rep.Ranks))},
		{"mndmst_run_sim_seconds", rep.ExecutionTime()},
		{"mndmst_run_bytes_sent", float64(rep.TotalBytes())},
		{"mndmst_run_msgs", float64(rep.TotalMsgs())},
	}
	for _, c := range checks {
		got, ok := snap[c.key]
		if !ok {
			return fmt.Errorf("obs cross-check: gauge %s missing from scrape", c.key)
		}
		if got != c.want {
			return fmt.Errorf("obs cross-check: %s = %g, report says %g", c.key, got, c.want)
		}
	}
	for _, name := range rep.PhaseNames() {
		wantC, _ := rep.PhaseTime(name)
		key := fmt.Sprintf("mndmst_run_phase_compute_seconds{phase=%q}", name)
		got, ok := snap[key]
		if !ok {
			return fmt.Errorf("obs cross-check: %s missing from scrape", key)
		}
		if got != wantC {
			return fmt.Errorf("obs cross-check: %s = %g, report says %g", key, got, wantC)
		}
	}
	return nil
}

// reportMetrics extracts the deterministic simulated-clock metrics every
// cluster run exposes. Wall readings are deliberately excluded: they are
// machine noise, and e2ebench owns wall time.
func reportMetrics(rep *cluster.Report) map[string]float64 {
	return map[string]float64{
		"sim_seconds":     rep.ExecutionTime(),
		"compute_seconds": rep.ComputeTime(),
		"comm_seconds":    rep.CommTime(),
		"bytes_sent":      float64(rep.TotalBytes()),
		"msgs":            float64(rep.TotalMsgs()),
	}
}
