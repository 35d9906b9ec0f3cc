package bench

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// smallRunner runs experiments at reduced scale with full verification —
// every experiment's forests are cross-checked against Kruskal.
func smallRunner() *Runner { return NewRunner(0.1, true) }

// runPaper collects the tables of the paper experiments cfg selects.
func runPaper(t *testing.T, cfg Config) []*Table {
	t.Helper()
	var tabs []*Table
	if err := RunPaper(cfg, func(tab *Table) error {
		tabs = append(tabs, tab)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return tabs
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestTable2ShapesMatchPaper(t *testing.T) {
	tab, err := Table2(smallRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// road_usa: low degree, huge diameter; web graphs: high degree, low
	// diameter, highly skewed.
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	roadDiam := parseCell(t, byName["road_usa"][3])
	webDiam := parseCell(t, byName["arabic-2005"][3])
	if roadDiam <= 3*webDiam {
		t.Fatalf("road diameter %v not ≫ web diameter %v", roadDiam, webDiam)
	}
	roadDeg := parseCell(t, byName["road_usa"][4])
	webDeg := parseCell(t, byName["sk-2005"][4])
	if webDeg <= 4*roadDeg {
		t.Fatalf("web degree %v not ≫ road degree %v", webDeg, roadDeg)
	}
	webMax := parseCell(t, byName["sk-2005"][5])
	if webMax <= 10*webDeg {
		t.Fatalf("web max degree %v not ≫ avg %v", webMax, webDeg)
	}
	if !strings.Contains(tab.String(), "road_usa") {
		t.Fatal("render broken")
	}
}

func TestTable3MNDWinsEverywhere(t *testing.T) {
	tab, err := Table3(smallRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	minImp, minImpName := 1e9, ""
	for _, row := range tab.Rows {
		bspExe := parseCell(t, row[1])
		mndExe := parseCell(t, row[3])
		if mndExe >= bspExe {
			t.Fatalf("%s: MND (%v) not faster than Pregel+ (%v)", row[0], mndExe, bspExe)
		}
		imp := parseCell(t, row[5])
		if imp < minImp {
			minImp, minImpName = imp, row[0]
		}
		commRed := parseCell(t, row[6])
		if commRed <= 0 {
			t.Fatalf("%s: no comm reduction", row[0])
		}
	}
	// The smallest win must be the gsh-2015 analogue, as in the paper.
	if minImpName != "gsh-2015-tpd" {
		t.Fatalf("smallest improvement on %s (%v%%), paper says gsh-2015-tpd", minImpName, minImp)
	}
}

func TestTable4AndFigure6Scaling(t *testing.T) {
	tab, err := Table4(smallRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Multi-node must beat single-node for both web graphs.
	for col := 1; col <= 2; col++ {
		t1 := parseCell(t, tab.Rows[0][col])
		t16 := parseCell(t, tab.Rows[3][col])
		if t16 >= t1 {
			t.Fatalf("col %d: 16 nodes (%v) not faster than 1 (%v)", col, t16, t1)
		}
	}

	f6, err := Figure6(smallRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 4 || len(f6.Rows[0]) != 5 {
		t.Fatalf("figure6 shape: %dx%d", len(f6.Rows), len(f6.Rows[0]))
	}
	// uk-2007 (last column) must scale 4 → 16 nodes.
	t4 := parseCell(t, f6.Rows[1][4])
	t16 := parseCell(t, f6.Rows[3][4])
	if t16 >= t4 {
		t.Fatalf("uk-2007: 16n (%v) not faster than 4n (%v)", t16, t4)
	}
}

func TestFigure4And5Shapes(t *testing.T) {
	f4, err := Figure4(smallRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Rows) != 8 {
		t.Fatalf("figure4 rows=%d", len(f4.Rows))
	}
	for _, row := range f4.Rows {
		if parseCell(t, row[3]) >= parseCell(t, row[2]) {
			t.Fatalf("%s @%s nodes: MND not faster than Pregel+", row[0], row[1])
		}
	}

	f5, err := Figure5(smallRunner())
	if err != nil {
		t.Fatal(err)
	}
	// At 16 nodes (last row per graph) Pregel+ must be comm-dominated and
	// MND must spend a larger fraction computing than Pregel+ does.
	for _, row := range f5.Rows {
		if row[1] != "16" {
			continue
		}
		bspComm := parseCell(t, row[3])
		mndComp := parseCell(t, row[4])
		bspComp := parseCell(t, row[2])
		if bspComm < 50 {
			t.Fatalf("%s: Pregel+ comm fraction %v%% < 50%%", row[0], bspComm)
		}
		if mndComp <= bspComp {
			t.Fatalf("%s: MND comp fraction %v%% not above Pregel+ %v%%", row[0], mndComp, bspComp)
		}
	}
}

func TestFigure7PhaseBreakdown(t *testing.T) {
	tab, err := Figure7(smallRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// uk-2007 at low node counts must be indComp-dominated (paper).
	for _, row := range tab.Rows {
		if row[0] == "uk-2007" && row[1] == "4" {
			ind := parseCell(t, row[2])
			comm := parseCell(t, row[3])
			post := parseCell(t, row[4])
			if ind <= comm || ind <= post {
				t.Fatalf("uk-2007@4n: indComp %v not dominant (comm %v post %v)", ind, comm, post)
			}
		}
	}
}

func TestFigure8GPUBenefit(t *testing.T) {
	tab, err := Figure8(NewRunner(0.3, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// The GPU must help on the largest graph at low node counts, and the
	// benefit must stay within the paper's plausibility band (< 40%).
	sawBenefit := false
	for _, row := range tab.Rows {
		benefit := parseCell(t, row[4])
		if benefit > 40 {
			t.Fatalf("%s @%s: GPU benefit %v%% implausible", row[0], row[1], benefit)
		}
		if row[0] == "uk-2007" && (row[1] == "1" || row[1] == "4") && benefit > 0 {
			sawBenefit = true
		}
	}
	if !sawBenefit {
		t.Fatal("GPU never helped uk-2007 at low node counts")
	}
}

func TestAblationsRunAndHoldInvariants(t *testing.T) {
	tabs := runPaper(t, Config{Scale: 0.1, Verify: true, Filter: regexp.MustCompile(`^Ablation/`)})
	if len(tabs) != 9 {
		t.Fatalf("ablations=%d", len(tabs))
	}
	// Leader-only merging must have a strictly higher peak residency than
	// hierarchical merging (the paper's space argument).
	leader := tabs[1]
	hierPeak := parseCell(t, leader.Rows[0][3])
	leadPeak := parseCell(t, leader.Rows[1][3])
	if leadPeak <= hierPeak {
		t.Fatalf("leader-only peak %v not above hierarchical %v", leadPeak, hierPeak)
	}
	// Disabling the GPU optimizations must not speed anything up.
	gpuTab := tabs[5]
	onOn := parseCell(t, gpuTab.Rows[0][2])
	offOff := parseCell(t, gpuTab.Rows[3][2])
	if offOff < onOn {
		t.Fatalf("disabling both GPU optimizations sped things up: %v < %v", offOff, onOn)
	}
}

func TestAllRuns(t *testing.T) {
	tabs := runPaper(t, Config{Scale: 0.05, Verify: true})
	if len(tabs) != 8 {
		t.Fatalf("tables=%d", len(tabs))
	}
	for _, tab := range tabs {
		if tab.String() == "" {
			t.Fatal("empty render")
		}
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{Title: "x", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	tab.AddNote("n")
	b, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"title": "x"`, `"rows"`, `"n"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("json missing %q: %s", want, s)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{Title: "X", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	tab.AddNote("a note")
	md := tab.Markdown()
	for _, want := range []string{"### X", "| a | b |", "|---|---|", "| 1 | 2 |", "> a note"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestExtensionsRun(t *testing.T) {
	r := NewRunner(0.05, true)
	for _, tc := range []struct {
		name string
		fn   func(*Runner) (*Table, error)
		rows int
	}{
		{"MultiGPU", ExtensionMultiGPU, 4},
		{"Heterogeneous", ExtensionHeterogeneous, 2},
		{"Applications", ExtensionApplications, 5},
		{"Filter", ExtensionFilter, 15},
	} {
		tab, err := tc.fn(r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tab.Rows) != tc.rows {
			t.Fatalf("%s: rows=%d want %d", tc.name, len(tab.Rows), tc.rows)
		}
	}
	// Heterogeneous: speed-aware (second row) must beat speed-blind.
	tab, err := ExtensionHeterogeneous(NewRunner(0.2, true))
	if err != nil {
		t.Fatal(err)
	}
	blind := parseCell(t, tab.Rows[0][1])
	aware := parseCell(t, tab.Rows[1][1])
	if aware >= blind {
		t.Fatalf("speed-aware %v not below speed-blind %v", aware, blind)
	}
}

// TestExtensionFilterRows checks Extension/Filter's three rows per
// family: below the rule's density (road) the filtered run is the
// paper's, and on the dense R-MAT and Barabási–Albert graphs it moves
// fewer bytes than the paper's pipeline.
func TestExtensionFilterRows(t *testing.T) {
	tab, err := ExtensionFilter(NewRunner(0.05, true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		filtered, paper := tab.Rows[i], tab.Rows[i+1]
		if filtered[2] != "MND-MST filtered" || paper[2] != "MND-MST" || tab.Rows[i+2][2] != "Pregel+" {
			t.Fatalf("rows %d-%d: systems %q %q %q", i, i+2, filtered[2], paper[2], tab.Rows[i+2][2])
		}
		switch {
		case strings.HasPrefix(filtered[0], "road"):
			if !reflect.DeepEqual(filtered[3:], paper[3:]) {
				t.Errorf("road: filtered %v differs from the paper pipeline %v below the rule's density", filtered, paper)
			}
		case strings.HasPrefix(filtered[0], "R-MAT"), strings.HasPrefix(filtered[0], "Barabási"):
			if fb, pb := parseCell(t, filtered[5]), parseCell(t, paper[5]); fb >= pb {
				t.Errorf("%s: filtered bytes %v not below the paper pipeline's %v", filtered[0], fb, pb)
			}
		}
	}
}

func TestWeakScalingEfficiencyReasonable(t *testing.T) {
	tab, err := ExtensionWeakScaling(NewRunner(0.2, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Efficiency at 16 nodes should stay above 30% (weak scaling decays
	// with merge communication but must not collapse).
	eff := parseCell(t, tab.Rows[3][4])
	if eff < 30 {
		t.Fatalf("weak-scaling efficiency %v%% at 16 nodes", eff)
	}
}
