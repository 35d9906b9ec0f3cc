// Command mndmst-bench runs the benchmark suites of internal/bench: the
// deterministic record of every modeled figure (the default) and the
// paper's §5 tables, ablations and extensions (suite paper). It gates
// revisions against a committed baseline.
//
// Modes of use:
//
//	mndmst-bench [-verify] -out BENCH_core.json
//	    Record every core scenario's sim metrics and every paper
//	    experiment's table, at scale 0.05. Output is bit-stable: two runs
//	    of the same binary produce byte-identical files, so the baseline
//	    diffs exactly. Bless a change with
//	    `mndmst-bench -verify -out bench.baseline.json`.
//
//	mndmst-bench -compare bench.baseline.json [-current BENCH_core.json]
//	    Compare a current record against a baseline, exactly: every
//	    metric and every table cell. Without -current the record runs
//	    first, at the baseline's scale. Exit 0 pass, 1 regression.
//
//	mndmst-bench -validate BENCH_core.json
//	    Schema-check an existing record (exit 2 on any load failure —
//	    including an empty file).
//
//	mndmst-bench -suite paper [-scale 0.1] [-verify] [-format markdown]
//	    Regenerate the §5 tables and figures, at the full reproduction
//	    scale unless -scale says otherwise. -scenarios 'Ablation/' or
//	    -scenarios 'Extension/' selects the ablations or extensions;
//	    -verify cross-checks every forest against Kruskal.
//
//	mndmst-bench -list [-suite paper]
//	    Print the suite's experiment names.
//
// -scenarios <regexp> selects experiments by name in either suite; with
// -compare it restricts both records to the selection.
//
// Exit codes: 0 pass, 1 regression detected, 2 load/run failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"

	"mndmst/internal/bench"
	"mndmst/internal/bench/schema"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// formats renders one paper table per -format value.
var formats = map[string]func(*bench.Table) (string, error){
	"text":     func(t *bench.Table) (string, error) { return t.String(), nil },
	"markdown": func(t *bench.Table) (string, error) { return t.Markdown(), nil },
	"json": func(t *bench.Table) (string, error) {
		b, err := t.JSON()
		return string(b), err
	},
}

func run(argv []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mndmst-bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		suite     = fs.String("suite", bench.SuiteCore, "experiment suite: core (sim gate) or paper (§5 tables, ablations, extensions)")
		scale     = fs.Float64("scale", 0, "workload scale (default 0.05 for the record, 1.0 for paper)")
		scenarios = fs.String("scenarios", "", "regexp selecting experiments by name (default: the whole record, the tables and figures of paper)")
		verify    = fs.Bool("verify", false, "cross-check every MND-MST forest against sequential Kruskal")
		format    = fs.String("format", "text", "paper suite output: text, markdown or json")
		out       = fs.String("out", "", "write the output to this file (default stdout)")
		compare   = fs.String("compare", "", "baseline record to gate against")
		current   = fs.String("current", "", "with -compare: pre-recorded current file instead of running the suite")
		validate  = fs.String("validate", "", "schema-check this record file and exit")
		list      = fs.Bool("list", false, "print the suite's experiment names and exit")
		quiet     = fs.Bool("quiet", false, "suppress per-experiment progress")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return fail("unexpected arguments: %v", fs.Args())
	}
	if bench.Experiments(*suite) == nil {
		return fail("unknown suite %q (want core or paper)", *suite)
	}

	if *list {
		for _, name := range bench.Names(*suite) {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *validate != "" {
		f, err := schema.Load(*validate)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "%s: valid %s record (%s mode, %d scenarios, %d tables)\n",
			*validate, f.Schema, f.Mode, len(f.Scenarios), len(f.Tables))
		return 0
	}

	cfg := bench.Config{Scale: *scale, Verify: *verify}
	if *scenarios != "" {
		re, err := regexp.Compile(*scenarios)
		if err != nil {
			return fail("bad -scenarios regexp: %v", err)
		}
		cfg.Filter = re
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	if *suite == bench.SuitePaper {
		if *compare != "" {
			return fail("-compare gates the record, not -suite paper")
		}
		return runPaper(cfg, *format, *out, stdout)
	}
	if *compare != "" {
		return runCompare(*compare, *current, cfg, stdout)
	}
	f, err := bench.Run(cfg)
	if err != nil {
		return fail("%v", err)
	}
	if err := emit(f, *out, stdout); err != nil {
		return fail("%v", err)
	}
	return 0
}

// fail reports a load, usage or run failure and returns exit code 2.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "mndmst-bench: "+format+"\n", args...)
	return 2
}

// runPaper prints each selected paper table in the given format as soon
// as it is built.
func runPaper(cfg bench.Config, format, out string, stdout io.Writer) int {
	render, ok := formats[format]
	if !ok {
		return fail("unknown -format %q (want text, markdown or json)", format)
	}
	w, closeOut := stdout, func() error { return nil }
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return fail("%v", err)
		}
		w, closeOut = f, f.Close
	}
	err := bench.RunPaper(cfg, func(t *bench.Table) error {
		s, err := render(t)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, s)
		return err
	})
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}

func emit(f *schema.File, out string, stdout io.Writer) error {
	if out == "" {
		buf, err := schema.Encode(f)
		if err != nil {
			return err
		}
		_, err = stdout.Write(buf)
		return err
	}
	if err := schema.Write(out, f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios, %d tables)\n", out, len(f.Scenarios), len(f.Tables))
	return nil
}

func runCompare(baselinePath, currentPath string, cfg bench.Config, stdout io.Writer) int {
	baseline, err := schema.Load(baselinePath)
	if err != nil {
		return fail("baseline: %v", err)
	}
	var cur *schema.File
	if currentPath != "" {
		if cur, err = schema.Load(currentPath); err != nil {
			return fail("current: %v", err)
		}
	} else {
		// Re-measure at the baseline's own scale so the diff is
		// apples-to-apples; an explicit -scale is ignored.
		cfg.Scale = baseline.Scale
		if cur, err = bench.Run(cfg); err != nil {
			return fail("%v", err)
		}
	}
	if cfg.Filter != nil {
		// A selection gates only what it names: restrict both records
		// to it, so an unselected entry is neither missing nor new.
		baseline, cur = subsetFile(baseline, cfg.Filter), subsetFile(cur, cfg.Filter)
	}
	res, err := schema.Compare(baseline, cur)
	if err != nil {
		return fail("%v", err)
	}
	res.Report(stdout)
	if !res.Passed() {
		return 1
	}
	return 0
}

// subsetFile restricts f to the scenarios and tables matching re.
func subsetFile(f *schema.File, re *regexp.Regexp) *schema.File {
	out := *f
	out.Scenarios, out.Tables = nil, nil
	for _, sc := range f.Scenarios {
		if re.MatchString(sc.Name) {
			out.Scenarios = append(out.Scenarios, sc)
		}
	}
	for _, t := range f.Tables {
		if re.MatchString(t.Name) {
			out.Tables = append(out.Tables, t)
		}
	}
	return &out
}
