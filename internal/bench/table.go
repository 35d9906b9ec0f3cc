package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"mndmst/internal/bench/schema"
)

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// record returns the table as the bench record stores it, under its
// registry name. A table without notes records "notes": [], not null, as
// every other table's notes are a list.
func (t *Table) record(name string) schema.Table {
	notes := t.Notes
	if notes == nil {
		notes = []string{}
	}
	return schema.Table{Name: name, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: notes}
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// fsec formats simulated seconds.
func fsec(s float64) string { return fmt.Sprintf("%.4f", s) }

// fpct formats a percentage.
func fpct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// fx formats a speedup factor.
func fx(f float64) string { return fmt.Sprintf("%.2fx", f) }

// Markdown renders the table as a GitHub-flavored markdown table with the
// notes as a trailing list — the format EXPERIMENTS.md uses.
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("### ")
	b.WriteString(t.Title)
	b.WriteString("\n\n| ")
	b.WriteString(strings.Join(t.Header, " | "))
	b.WriteString(" |\n|")
	for range t.Header {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("| ")
		b.WriteString(strings.Join(row, " | "))
		b.WriteString(" |\n")
	}
	for _, n := range t.Notes {
		b.WriteString("\n> ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// JSON marshals the table as a machine-readable object for CI pipelines.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.Title, t.Header, t.Rows, t.Notes}, "", "  ")
}
