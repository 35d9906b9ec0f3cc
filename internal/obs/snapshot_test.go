package obs

import (
	"math"
	"testing"
)

func TestSnapshotMatchesEncodedSamples(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("snap_jobs_total", "jobs").Add(7)
	reg.Gauge("snap_depth", "depth").Set(3.25)
	// A value with no short decimal representation must round-trip
	// exactly through the text encoding (FormatFloat 'g' -1).
	reg.Gauge("snap_seconds", "seconds").Set(math.Pi)
	reg.GaugeVec("snap_phase_seconds", "per phase", "phase").With("merge").Set(0.5)
	reg.HistogramVec("snap_latency", "latency", []float64{1, 10}).With().Observe(4)

	snap, err := reg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"snap_jobs_total":                   7,
		"snap_depth":                        3.25,
		"snap_seconds":                      math.Pi,
		`snap_phase_seconds{phase="merge"}`: 0.5,
		"snap_latency_count":                1,
		"snap_latency_sum":                  4,
	}
	for key, v := range want {
		got, ok := snap[key]
		if !ok {
			t.Fatalf("snapshot lacks %q; have %v", key, snap)
		}
		if got != v {
			t.Fatalf("snapshot[%q] = %g, want %g", key, got, v)
		}
	}
}

func TestSnapshotNilRegistry(t *testing.T) {
	var reg *Registry
	snap, err := reg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 0 {
		t.Fatalf("nil registry snapshot not empty: %v", snap)
	}
}
