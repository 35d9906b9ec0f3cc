package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// corpusExpectations collects the `// want <check-id>...` comments of the
// loaded fixture packages as a multiset keyed file:line:id. Block comments
// (`/* want id */`) work too — needed when the flagged line already ends in
// a //lint: directive, which would swallow a trailing line comment.
func corpusExpectations(pkgs []*Package) map[string]int {
	want := map[string]int{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					if strings.HasPrefix(c.Text, "/*") {
						text = strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
					}
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					for _, id := range strings.Fields(text)[1:] {
						want[fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, id)]++
					}
				}
			}
		}
	}
	return want
}

func findingKeys(findings []Finding) map[string]int {
	got := map[string]int{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.ID)]++
	}
	return got
}

func diffKeys(t *testing.T, got, want map[string]int) {
	t.Helper()
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if got[k] != want[k] {
			t.Errorf("%s: got %d finding(s), want %d", k, got[k], want[k])
		}
	}
}

// TestCorpusBad checks that every known-bad fixture is flagged exactly where
// its `// want` comment says, and that each check of the suite has at least
// one bad fixture exercising it.
func TestCorpusBad(t *testing.T) {
	pkgs, err := Load([]string{"./testdata/src/bad"})
	if err != nil {
		t.Fatalf("load bad corpus: %v", err)
	}
	findings := Run(pkgs)
	diffKeys(t, findingKeys(findings), corpusExpectations(pkgs))

	covered := map[string]bool{}
	for _, f := range findings {
		covered[f.ID] = true
	}
	for _, c := range Checks {
		if !covered[c.ID] {
			t.Errorf("check %s has no known-bad fixture in the corpus", c.ID)
		}
	}
}

// TestCorpusGood checks that every accepted idiom — exempt scopes, the
// order-insensitive map-loop forms, seeded rand, joined goroutines, handled
// errors, justified suppressions — produces no findings.
func TestCorpusGood(t *testing.T) {
	pkgs, err := Load([]string{"./testdata/src/good"})
	if err != nil {
		t.Fatalf("load good corpus: %v", err)
	}
	for _, f := range Run(pkgs) {
		t.Errorf("unexpected finding in good corpus: %s", f)
	}
}

// TestLoadRepo loads the whole module the way the CI gate does and checks
// the tree is clean — the self-test version of `mndmst-lint ./...`.
func TestLoadRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow")
	}
	pkgs, err := Load([]string{"mndmst/..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("load module: no packages")
	}
	for _, f := range Run(pkgs) {
		t.Errorf("finding on the main tree: %s", f)
	}
}

// TestDeadCodePartialLoad loads one package the module imports widely: the
// dead-code check cannot see its importers, so it must judge nothing there
// and leave the package's //lint:testonly justifications alone.
func TestDeadCodePartialLoad(t *testing.T) {
	pkgs, err := Load([]string{"mndmst/internal/merge"})
	if err != nil {
		t.Fatalf("load merge: %v", err)
	}
	for _, f := range Run(pkgs) {
		t.Errorf("finding on a partial load: %s", f)
	}
}

// TestCheckRegistry pins the stable check IDs and their suppression tokens,
// which DESIGN.md documents.
func TestCheckRegistry(t *testing.T) {
	want := map[string]string{
		"det-mapiter":         "sorted",
		"det-wallclock":       "wallclock",
		"tag-literal":         "tag",
		"tag-dup":             "tag",
		"go-hygiene":          "detached",
		"err-drop":            "droperr",
		"weight-cmp":          "weightcmp",
		"lock-order":          "lockorder",
		"goroutine-leak":      "goleak",
		"ctx-prop":            "noctx",
		"collective-symmetry": "collective",
		"dead-code":           "testonly",
		"stale-justification": "keep",
	}
	if len(Checks) != len(want) {
		t.Fatalf("registry has %d checks, want %d", len(Checks), len(want))
	}
	for _, c := range Checks {
		tok, ok := want[c.ID]
		if !ok {
			t.Errorf("unexpected check %s", c.ID)
			continue
		}
		if c.Suppress != tok {
			t.Errorf("check %s suppression token = %s, want %s", c.ID, c.Suppress, tok)
		}
		if c.Doc == "" || (c.Run == nil && c.RunProgram == nil) {
			t.Errorf("check %s lacks doc or runner", c.ID)
		}
	}
}
