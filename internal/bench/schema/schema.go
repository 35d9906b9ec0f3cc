// Package schema defines the canonical, versioned on-disk format of the
// repo's benchmark records (bench.baseline.json and the records
// mndmst-bench writes): a flat list of named scenarios, each carrying a map
// of numeric metrics, and a list of named tables, each the rendered cells
// of one paper experiment, plus enough header to interpret them — the
// measurement mode (always the deterministic simulated clock; e2ebench
// owns wall time), the suite and the workload scale. One validator and
// one comparator gate every record.
//
// Encoding is canonical: scenarios and tables keep their suite order,
// metric maps serialize with sorted keys (encoding/json's map behaviour),
// and floats use Go's shortest round-trip representation — two encodes of
// the same File are byte-identical, which is what makes sim baselines
// exactly diffable.
package schema

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Version is the schema identifier every valid file carries. Bump it when
// the layout changes incompatibly; the validator rejects unknown versions
// so a stale reader never silently misinterprets a newer file.
const Version = "mndmst-bench/v2"

// ModeSim is the one measurement mode: deterministic simulated-clock
// metrics, bit-stable across runs and compared exactly.
const ModeSim = "sim"

// Scenario is one named measurement: a pinned workload/configuration pair
// and the metrics it produced.
type Scenario struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// Table is one paper experiment's output, cell for cell as the suite
// renders it.
type Table struct {
	// Name is the experiment's registry name ("Table3",
	// "Ablation/GroupSize", ...).
	Name   string     `json:"name"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes"`
}

// File is one benchmark record.
type File struct {
	Schema string `json:"schema"`
	Mode   string `json:"mode"`
	// Suite names the emitting suite ("core" for mndmst-bench).
	Suite string `json:"suite"`
	// Scale is the workload scale the scenarios and tables ran at (0
	// when the suite has no scale knob).
	Scale     float64    `json:"scale,omitempty"`
	Scenarios []Scenario `json:"scenarios"`
	Tables    []Table    `json:"tables"`
}

// Validate checks structural integrity: known version and mode, at least
// one scenario or table, unique non-empty scenario and table names, at
// least one metric per scenario, and finite metric values. A file that
// passes Validate is safe to compare and safe to gate on — in particular,
// a silently-empty record (nothing measured) is invalid by construction.
func (f *File) Validate() error {
	if f.Schema != Version {
		return fmt.Errorf("schema: unknown schema %q (want %q)", f.Schema, Version)
	}
	if f.Mode != ModeSim {
		return fmt.Errorf("schema: unknown mode %q (want %q)", f.Mode, ModeSim)
	}
	if f.Suite == "" {
		return fmt.Errorf("schema: empty suite name")
	}
	if len(f.Scenarios)+len(f.Tables) == 0 {
		return fmt.Errorf("schema: no scenarios or tables (an empty bench record gates nothing)")
	}
	seen := make(map[string]bool, len(f.Scenarios))
	for i, s := range f.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("schema: scenario %d has an empty name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("schema: duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Metrics) == 0 {
			return fmt.Errorf("schema: scenario %q has no metrics", s.Name)
		}
		for name, v := range s.Metrics {
			if name == "" {
				return fmt.Errorf("schema: scenario %q has an empty metric name", s.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("schema: scenario %q metric %q is %v", s.Name, name, v)
			}
		}
	}
	tables := make(map[string]bool, len(f.Tables))
	for i, t := range f.Tables {
		if t.Name == "" {
			return fmt.Errorf("schema: table %d has an empty name", i)
		}
		if tables[t.Name] {
			return fmt.Errorf("schema: duplicate table %q", t.Name)
		}
		tables[t.Name] = true
	}
	return nil
}

// Encode validates f and serializes it canonically (indented JSON with a
// trailing newline). Two calls over equal Files return identical bytes.
func Encode(f *File) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Write encodes f to path.
func Write(path string, f *File) error {
	buf, err := Encode(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// Read parses and validates one File.
func Read(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("schema: decode: %w", err)
	}
	// Trailing garbage after the object means the file is not one record.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("schema: trailing data after record")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Load reads and validates the File at path.
func Load(path string) (*File, error) {
	raw, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	f, err := Read(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
