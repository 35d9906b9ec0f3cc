package schema

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func validFile() *File {
	return &File{
		Schema: Version,
		Mode:   ModeSim,
		Suite:  "core",
		Scale:  0.05,
		Scenarios: []Scenario{
			{Name: "core/road_usa/p4", Metrics: map[string]float64{
				"sim_seconds": 1.25, "bytes_sent": 4096, "msgs": 17,
			}},
			{Name: "comm/deltas/p4", Metrics: map[string]float64{
				"comm_seconds": 0.003,
			}},
		},
		Tables: []Table{
			{Name: "Table3", Title: "Table 3: MND-MST vs Pregel+",
				Header: []string{"graph", "MND-MST (s)"},
				Rows:   [][]string{{"road_usa", "0.0120"}, {"arabic-2005", "0.0340"}},
				Notes:  []string{"simulated seconds"}},
			{Name: "Ablation/GroupSize", Title: "Ablation: group size",
				Header: []string{"group", "exec (s)"},
				Rows:   [][]string{{"2", "0.0100"}},
				Notes:  []string{}},
		},
	}
}

func TestValidateAcceptsGoodFile(t *testing.T) {
	if err := validFile().Validate(); err != nil {
		t.Fatal(err)
	}
	// A selection of tables alone (`-scenarios '^Table'`) is a record.
	f := validFile()
	f.Scenarios = nil
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*File)
		want string
	}{
		{"wrong version", func(f *File) { f.Schema = "mndmst-bench/v0" }, "unknown schema"},
		{"wrong mode", func(f *File) { f.Mode = "wall" }, "unknown mode"},
		{"empty suite", func(f *File) { f.Suite = "" }, "empty suite"},
		{"no scenarios", func(f *File) { f.Scenarios, f.Tables = nil, nil }, "no scenarios or tables"},
		{"empty name", func(f *File) { f.Scenarios[0].Name = "" }, "empty name"},
		{"duplicate name", func(f *File) { f.Scenarios[1].Name = f.Scenarios[0].Name }, "duplicate"},
		{"no metrics", func(f *File) { f.Scenarios[0].Metrics = nil }, "no metrics"},
		{"nan metric", func(f *File) { f.Scenarios[0].Metrics["sim_seconds"] = math.NaN() }, "NaN"},
		{"inf metric", func(f *File) { f.Scenarios[0].Metrics["sim_seconds"] = math.Inf(1) }, "+Inf"},
		{"empty table name", func(f *File) { f.Tables[1].Name = "" }, "table 1 has an empty name"},
		{"duplicate table name", func(f *File) { f.Tables[1].Name = f.Tables[0].Name }, `duplicate table "Table3"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFile()
			tc.mut(f)
			err := f.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a file with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestEncodeIsCanonical(t *testing.T) {
	a, err := Encode(validFile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(validFile())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodes of equal files differ:\n%s\n---\n%s", a, b)
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("encoded file does not end in a newline")
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := validFile()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestReadRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"schema":"` + Version + `","mode":"sim","suite":"x","bogus":1}`)); err == nil {
		t.Fatal("Read accepted an unknown field")
	}
	buf, err := Encode(validFile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(append(buf, []byte("{}")...))); err == nil {
		t.Fatal("Read accepted trailing data")
	}
}

func TestCompareSimExact(t *testing.T) {
	base, cur := validFile(), validFile()
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() || len(res.Deltas) != 0 {
		t.Fatalf("identical files did not pass: %+v", res)
	}

	// Any drift at all, however small, regresses.
	cur.Scenarios[0].Metrics["sim_seconds"] *= 1.0001
	res, err = Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() || res.Regressions != 1 {
		t.Fatalf("perturbed sim file passed: %+v", res)
	}
	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "sim_seconds") {
		t.Fatalf("report lacks the per-metric regression line:\n%s", out)
	}
}

func TestCompareMissingScenarioAndMetric(t *testing.T) {
	base, cur := validFile(), validFile()
	cur.Scenarios = cur.Scenarios[:1]
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() || len(res.MissingScenarios) != 1 {
		t.Fatalf("dropped scenario passed: %+v", res)
	}

	cur = validFile()
	delete(cur.Scenarios[0].Metrics, "msgs")
	res, err = Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() || len(res.MissingMetrics) != 1 {
		t.Fatalf("dropped metric passed: %+v", res)
	}

	// New scenarios are informational only.
	cur = validFile()
	cur.Scenarios = append(cur.Scenarios, Scenario{
		Name: "core/extra", Metrics: map[string]float64{"sim_seconds": 1},
	})
	res, err = Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() || len(res.NewScenarios) != 1 {
		t.Fatalf("new scenario handling wrong: %+v", res)
	}
}

func TestCompareRejectsIncomparableFiles(t *testing.T) {
	base := validFile()
	scaled := validFile()
	scaled.Scale = 0.1
	if _, err := Compare(base, scaled); err == nil {
		t.Fatal("sim scale mismatch accepted")
	}
	suite := validFile()
	suite.Suite = "comm"
	if _, err := Compare(base, suite); err == nil {
		t.Fatal("suite mismatch accepted")
	}
}

// TestCompareTables: a changed cell is a regression that names its table
// and row, a dropped table is a regression, and a table only the current
// run has is a note.
func TestCompareTables(t *testing.T) {
	base, cur := validFile(), validFile()
	cur.Tables[0].Rows[1][1] = "0.0341"
	res, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() || res.Regressions != 1 || res.TablesCompared != 2 {
		t.Fatalf("changed cell passed: %+v", res)
	}
	want := TableDelta{Table: "Table3", Where: "row 2",
		Baseline: "arabic-2005 | 0.0340", Current: "arabic-2005 | 0.0341"}
	if len(res.TableDeltas) != 1 || res.TableDeltas[0] != want {
		t.Fatalf("table deltas = %+v, want %+v", res.TableDeltas, want)
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if out := buf.String(); !strings.Contains(out, "REGRESSION Table3") || !strings.Contains(out, "row 2: arabic-2005 | 0.0340 -> arabic-2005 | 0.0341") {
		t.Fatalf("report does not name the table and its row:\n%s", out)
	}

	// Every part of a table is gated: title, header, row count, notes.
	for _, tc := range []struct {
		where string
		mut   func(*Table)
	}{
		{"title", func(tb *Table) { tb.Title += "!" }},
		{"header", func(tb *Table) { tb.Header[1] = "exec (s)" }},
		{"row 3", func(tb *Table) { tb.Rows = append(tb.Rows, []string{"it-2004", "0.0500"}) }},
		{"note 1", func(tb *Table) { tb.Notes = nil }},
	} {
		cur := validFile()
		tc.mut(&cur.Tables[0])
		res, err := Compare(base, cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed() || len(res.TableDeltas) != 1 || res.TableDeltas[0].Where != tc.where {
			t.Errorf("%s change: %+v", tc.where, res)
		}
	}

	cur = validFile()
	cur.Tables = cur.Tables[1:]
	res, err = Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() || !reflect.DeepEqual(res.MissingTables, []string{"Table3"}) {
		t.Fatalf("dropped table passed: %+v", res)
	}

	cur = validFile()
	cur.Tables = append(cur.Tables, Table{Name: "Extension/New", Title: "new"})
	res, err = Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() || !reflect.DeepEqual(res.NewTables, []string{"Extension/New"}) {
		t.Fatalf("new table handling wrong: %+v", res)
	}
	buf.Reset()
	res.Report(&buf)
	if out := buf.String(); !strings.Contains(out, "note       Extension/New") || strings.Contains(out, "REGRESSION") {
		t.Fatalf("new table not reported as a note only:\n%s", out)
	}
}
