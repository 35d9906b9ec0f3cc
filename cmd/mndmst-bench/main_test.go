package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mndmst/internal/bench/schema"
)

// benchArgs is the cheap filtered subset the CLI tests measure: the two
// comm scenarios at a small scale, deterministic and fast.
func benchArgs(out string) []string {
	return []string{"-quiet", "-scale", "0.02", "-scenarios", "^comm/", "-out", out}
}

func TestSimRunsAreByteIdentical(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if code := run(benchArgs(a), io.Discard); code != 0 {
		t.Fatalf("first run exited %d", code)
	}
	if code := run(benchArgs(b), io.Discard); code != 0 {
		t.Fatalf("second run exited %d", code)
	}
	ba, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ba) == 0 || !bytes.Equal(ba, bb) {
		t.Fatalf("sim runs differ (%d vs %d bytes)", len(ba), len(bb))
	}
}

func TestCompareDetectsPerturbation(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "cur.json")
	if code := run(benchArgs(cur), io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	f, err := schema.Load(cur)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb one metric; in sim mode any change must gate.
	f.Scenarios[0].Metrics["bytes_sent"] *= 2
	base := filepath.Join(dir, "base.json")
	if err := schema.Write(base, f); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-compare", base, "-current", cur}, io.Discard); code != 1 {
		t.Fatalf("perturbed compare exited %d, want 1", code)
	}
	if code := run([]string{"-compare", cur, "-current", cur}, io.Discard); code != 0 {
		t.Fatalf("self compare exited %d, want 0", code)
	}
}

// TestCompareSelectionSubsetsBothRecords: with -scenarios, -compare gates
// only the selected entries of both records, whether it reads -current or
// runs the selection itself.
func TestCompareSelectionSubsetsBothRecords(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "sub.json")
	if code := run(benchArgs(sub), io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	f, err := schema.Load(sub)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline also holds entries the selection leaves out.
	f.Scenarios = append(f.Scenarios, schema.Scenario{Name: "core/road_usa/p4", Metrics: map[string]float64{"sim_seconds": 1}})
	f.Tables = append(f.Tables, schema.Table{Name: "Table3", Title: "Table 3"})
	base := filepath.Join(dir, "base.json")
	if err := schema.Write(base, f); err != nil {
		t.Fatal(err)
	}
	for _, argv := range [][]string{
		{"-compare", base, "-current", sub, "-scenarios", "^comm/"},
		{"-quiet", "-compare", base, "-scenarios", "^comm/"},
	} {
		var out strings.Builder
		if code := run(argv, &out); code != 0 {
			t.Errorf("%v exited %d:\n%s", argv, code, out.String())
		}
	}
	if code := run([]string{"-compare", base, "-current", sub}, io.Discard); code != 1 {
		t.Fatalf("unselected compare exited %d, want 1 (two entries missing)", code)
	}
}

// TestCompareNamesChangedTable: a paper table that moves fails the gate,
// and the report names the table and its first differing row.
func TestCompareNamesChangedTable(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "cur.json")
	if code := run([]string{"-quiet", "-scale", "0.02", "-scenarios", "^Table2$", "-out", cur}, io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	f, err := schema.Load(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Scenarios) != 0 || len(f.Tables) != 1 {
		t.Fatalf("record holds %d scenarios and %d tables, want Table2 alone", len(f.Scenarios), len(f.Tables))
	}
	f.Tables[0].Rows[1][1] += "0"
	base := filepath.Join(dir, "base.json")
	if err := schema.Write(base, f); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run([]string{"-compare", base, "-current", cur}, &out); code != 1 {
		t.Fatalf("changed table compare exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION Table2") || !strings.Contains(out.String(), "row 2:") {
		t.Fatalf("report does not name the table and row:\n%s", out.String())
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.json":   "",
		"garbage.json": "not json",
		"wrong.json":   `{"schema":"other/v9"}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-validate", p}, io.Discard); code != 2 {
			t.Errorf("-validate %s exited %d, want 2", name, code)
		}
	}
	if code := run([]string{"-validate", filepath.Join(dir, "missing.json")}, io.Discard); code != 2 {
		t.Error("-validate on a missing file must exit 2")
	}
}

func TestValidateAcceptsRealRecord(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "ok.json")
	if code := run(benchArgs(p), io.Discard); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	if code := run([]string{"-validate", p}, io.Discard); code != 0 {
		t.Fatal("-validate rejected a freshly produced record")
	}
}

func TestUnknownScenarioFilterFails(t *testing.T) {
	if code := run([]string{"-quiet", "-scenarios", "no-such-scenario", "-out", filepath.Join(t.TempDir(), "x.json")}, io.Discard); code != 2 {
		t.Fatalf("empty filter match exited %d, want 2", code)
	}
}

func TestValidateRejectsWallRecord(t *testing.T) {
	// Wall mode is gone: e2ebench owns wall time, and a wall record from
	// an older binary must fail to load rather than gate anything.
	p := filepath.Join(t.TempDir(), "wall.json")
	rec := `{"schema":"` + schema.Version + `","mode":"wall","suite":"core",` +
		`"scenarios":[{"name":"comm/deltas/p4/64KiB","metrics":{"wall_seconds":0.01}}]}`
	if err := os.WriteFile(p, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-validate", p}, io.Discard); code != 2 {
		t.Fatalf("-validate of a wall record exited %d, want 2", code)
	}
}

// paper runs the paper suite at a small scale and returns its output.
func paper(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	argv := append([]string{"-quiet", "-suite", "paper", "-scale", "0.05"}, args...)
	if code := run(argv, &out); code != 0 {
		t.Fatalf("%v exited %d", argv, code)
	}
	return out.String()
}

func TestPaperSuiteSingle(t *testing.T) {
	out := paper(t, "-scenarios", "^Table2$")
	if !strings.Contains(out, "road_usa") || strings.Contains(out, "Table 3") {
		t.Fatalf("output: %s", out)
	}
}

func TestPaperSuiteJSON(t *testing.T) {
	p := filepath.Join(t.TempDir(), "tables.json")
	if out := paper(t, "-scenarios", "^Table2$", "-format", "json", "-out", p); out != "" {
		t.Fatalf("-out still printed to stdout: %s", out)
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var tab struct {
		Title string     `json:"title"`
		Rows  [][]string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &tab); err != nil || len(tab.Rows) != 6 {
		t.Fatalf("not one 6-row JSON table (%v): %s", err, raw)
	}
}

func TestPaperSuiteMultiGPU(t *testing.T) {
	out := paper(t, "-scenarios", "MultiGPU", "-format", "markdown", "-verify")
	if !strings.HasPrefix(out, "### Extension: accelerators per node") || !strings.Contains(out, "| GPUs/node |") {
		t.Fatalf("output: %s", out)
	}
}

func TestPaperSuiteUnknown(t *testing.T) {
	for _, argv := range [][]string{
		{"-suite", "paper", "-scenarios", "Table99"},
		{"-suite", "paper", "-format", "xml"},
		{"-suite", "paper", "-compare", "bench.baseline.json"},
		{"-suite", "cycles"},
	} {
		if code := run(argv, io.Discard); code != 2 {
			t.Errorf("%v exited %d, want 2", argv, code)
		}
	}
}

func TestListNamesBothSuites(t *testing.T) {
	for suite, want := range map[string]string{"core": "core/road_usa/p4\n", "paper": "Extension/WeakScaling\n"} {
		var out strings.Builder
		if code := run([]string{"-list", "-suite", suite}, &out); code != 0 || !strings.Contains(out.String(), want) {
			t.Errorf("-list -suite %s exited %d:\n%s", suite, code, out.String())
		}
	}
}
