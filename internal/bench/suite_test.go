package bench

import (
	"bytes"
	"reflect"
	"regexp"
	"testing"

	"mndmst/internal/bench/schema"
)

// cheapFilter restricts tests to the two comm scenarios: deterministic,
// no graph generation, fast.
var cheapFilter = regexp.MustCompile(`^comm/`)

func TestSimModeIsDeterministic(t *testing.T) {
	cfg := Config{Scale: 0.02, Filter: cheapFilter}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := schema.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := schema.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("two sim runs encode differently:\n%s\nvs\n%s", ba, bb)
	}
	if a.Mode != schema.ModeSim || a.Suite != SuiteCore || a.Scale != 0.02 {
		t.Errorf("header = (%q, %q, %g)", a.Mode, a.Suite, a.Scale)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	none := regexp.MustCompile(`^no-such/`)
	if _, err := Run(Config{Filter: none}); err == nil {
		t.Error("empty core selection accepted")
	}
	if err := RunPaper(Config{Filter: none}, func(*Table) error { return nil }); err == nil {
		t.Error("empty paper selection accepted")
	}
	if Experiments("cycles") != nil {
		t.Error("unknown suite has experiments")
	}
}

func TestNamesAreUniqueAndStable(t *testing.T) {
	for _, tc := range []struct {
		suite string
		min   int
		// Anchor a few names: renaming breaks every baseline (core) and
		// every documented selection (paper), so it should also break
		// this test.
		pinned []string
	}{
		{SuiteCore, 20, []string{
			"core/road_usa/p4", "core/uk-2007/p16", "core/arabic-2005/p4/gpu",
			"dist/mem/arabic-2005/p4", "dist/tcp/arabic-2005/p4",
			"comm/deltas/p4/64KiB", "comm/segments/ring/p4",
			"serve/jobs/cold", "serve/jobs/hot", "apps/pagerank/arabic-2005/p8",
			"core/road_usa/p4/filter", "core/uk-2007/p16/filter",
		}},
		{SuitePaper, 21, []string{
			"Table2", "Table3", "Table4", "Figure4", "Figure8",
			"Ablation/GroupSize", "Ablation/BSPCombining",
			"Extension/MultiGPU", "Extension/WeakScaling", "Extension/Filter",
		}},
	} {
		names := Names(tc.suite)
		if len(names) < tc.min {
			t.Fatalf("%s suite has %d experiments, expected the full pinned set", tc.suite, len(names))
		}
		seen := make(map[string]bool)
		for _, n := range names {
			if seen[n] {
				t.Errorf("%s: duplicate name %q", tc.suite, n)
			}
			seen[n] = true
		}
		for _, want := range tc.pinned {
			if !seen[want] {
				t.Errorf("pinned %s experiment %q missing", tc.suite, want)
			}
		}
	}
	// The default paper selection is exactly the eight §5 artifacts.
	n := 0
	for _, name := range Names(SuitePaper) {
		if paperDefault.MatchString(name) {
			n++
		}
	}
	if n != 8 {
		t.Errorf("paperDefault selects %d experiments, want the 8 tables and figures", n)
	}
}

// TestFullSuiteRuns executes every pinned core scenario once — core, GPU,
// both transports, comm, serve, apps — and every paper experiment, with
// every forest verified, and checks the record validates and covers both
// suites. This is the same path the CI perf gate takes.
func TestFullSuiteRuns(t *testing.T) {
	f, err := Run(Config{Scale: 0.02, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Scenarios) != len(Names(SuiteCore)) {
		t.Fatalf("record has %d scenarios, suite has %d", len(f.Scenarios), len(Names(SuiteCore)))
	}
	if len(f.Tables) != len(Names(SuitePaper)) {
		t.Fatalf("record has %d tables, paper suite has %d", len(f.Tables), len(Names(SuitePaper)))
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range f.Scenarios {
		if sim, ok := sc.Metrics["sim_seconds"]; ok && sim <= 0 {
			t.Errorf("%s: sim_seconds = %g, want > 0", sc.Name, sim)
		}
	}
}

// TestRunFilterSelectsInBothSuites: a filtered record holds exactly the
// core scenarios and paper tables whose names match, in registry order.
func TestRunFilterSelectsInBothSuites(t *testing.T) {
	filter := regexp.MustCompile(`^comm/|^Table2$|^Ablation/Termination$`)
	f, err := Run(Config{Scale: 0.02, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, name := range append(Names(SuiteCore), Names(SuitePaper)...) {
		if filter.MatchString(name) {
			want = append(want, name)
		}
	}
	for _, sc := range f.Scenarios {
		got = append(got, sc.Name)
	}
	for _, tab := range f.Tables {
		got = append(got, tab.Name)
		if tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Errorf("table %s recorded empty: %+v", tab.Name, tab)
		}
	}
	if len(f.Tables) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("record holds %v, filter selects %v", got, want)
	}
}
