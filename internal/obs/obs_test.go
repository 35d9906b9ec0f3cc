package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter=%d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge=%g, want 1.5", got)
	}
	g.SetMax(1.0) // below current: no-op
	g.SetMax(9.25)
	if got := g.Value(); got != 9.25 {
		t.Fatalf("gauge after SetMax=%g, want 9.25", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "h")
	b := r.Counter("test_total", "h")
	if a != b {
		t.Fatal("same name resolved to two counters")
	}
	v1 := r.CounterVec("test_vec_total", "h", "peer")
	v2 := r.CounterVec("test_vec_total", "h", "peer")
	if v1.With("3") != v2.With("3") {
		t.Fatal("same (name, labels) resolved to two series")
	}
	if v1.With("3") == v1.With("4") {
		t.Fatal("distinct label values share a series")
	}
}

func TestShapeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "h")
	mustPanic(t, "kind conflict", func() { r.Gauge("test_total", "h") })
	mustPanic(t, "label conflict", func() { r.CounterVec("test_total", "h", "peer") })
	mustPanic(t, "bad name", func() { r.Counter("0bad", "h") })
	mustPanic(t, "bad label", func() { r.CounterVec("test_vec", "h", "le") })
	mustPanic(t, "arity mismatch", func() { r.CounterVec("test_vec2", "h", "a", "b").With("x") })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestNilSafety: a nil registry hands out nil handles and every handle
// method is a no-op — the contract that lets instrumentation be wired
// unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "h").Inc()
	r.Gauge("x", "h").Set(1)
	r.GaugeVec("xv", "h", "k").With("v").SetMax(2)
	r.HistogramVec("xh", "h", nil).With().Observe(0.5)
	r.HistogramVec("xhv", "h", nil, "k").With("v").Observe(0.5)
	if got := r.CounterVec("xc", "h", "k").With("v").Value(); got != 0 {
		t.Fatalf("nil counter value=%d", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry encoded %q, err=%v", buf.String(), err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_seconds", "latency", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count=%d", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Fatalf("sum=%g, want %g", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Fatalf("encoding missing %q:\n%s", want, buf.String())
		}
	}
}

// TestHistogramBoundaryLandsInLowerBucket: an observation exactly on a
// bound belongs to that bound's bucket (le is an upper inclusive bound).
func TestHistogramBoundaryLandsInLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_edge_seconds", "", []float64{1, 2}).With()
	h.Observe(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `test_edge_seconds_bucket{le="1"} 1`) {
		t.Fatalf("boundary observation missed the le=1 bucket:\n%s", buf.String())
	}
}

func TestEncodeGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "requests served").Add(7)
	v := r.GaugeVec("app_temp", "temperature by room", "room")
	v.With("kitchen").Set(21.5)
	v.With(`we"ird\room` + "\n").Set(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total requests served
# TYPE app_requests_total counter
app_requests_total 7
# HELP app_temp temperature by room
# TYPE app_temp gauge
app_temp{room="kitchen"} 21.5
app_temp{room="we\"ird\\room\n"} 1
`
	if buf.String() != want {
		t.Fatalf("golden mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

// TestParseRoundTrip: ParseText reads back exactly what WritePrometheus
// wrote, keyed by the rendered sample name + label block.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", "h").Add(42)
	r.GaugeVec("rt_gauge", "h", "phase").With("merge").Set(0.125)
	r.HistogramVec("rt_seconds", "h", []float64{1}).With().Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"rt_total":                     42,
		`rt_gauge{phase="merge"}`:      0.125,
		`rt_seconds_bucket{le="1"}`:    1,
		`rt_seconds_bucket{le="+Inf"}`: 1,
		"rt_seconds_sum":               0.5,
		"rt_seconds_count":             1,
	}
	for k, want := range checks {
		if got, ok := m[k]; !ok || got != want {
			t.Fatalf("parsed[%q]=%g (present=%t), want %g\nscrape:\n%s", k, got, ok, want, buf.String())
		}
	}
	if _, err := ParseText(strings.NewReader("not a metric line\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// TestConcurrentHotPath hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the lock-free-hot-path proof.
func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot_hw", "")
	h := r.HistogramVec("hot_seconds", "", []float64{0.5}).With()
	vec := r.CounterVec("hot_vec_total", "", "peer")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			peer := vec.With(string(rune('a' + w)))
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(float64(w*per + i))
				h.Observe(0.25)
				peer.Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter=%d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count=%d, want %d", h.Count(), workers*per)
	}
	if g.Value() != float64(workers*per-1) {
		t.Fatalf("high-water=%g, want %d", g.Value(), workers*per-1)
	}
}
