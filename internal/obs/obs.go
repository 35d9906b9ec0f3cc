// Package obs is the stdlib-only metrics substrate of the runtime
// observability layer: a process-local registry of counters, gauges, and
// bounded-bucket histograms with a Prometheus text-format encoder.
//
// The design optimizes for the instrumentation sites, not the scrape
// path:
//
//   - The hot path is lock-free. A metric handle (*Counter, *Gauge,
//     *Histogram) is resolved once at wiring time; Inc/Add/Set/Observe
//     are single atomic operations with no registry lock.
//   - Every handle method is nil-safe: methods on a nil handle are
//     no-ops, and a nil *Registry hands out nil handles, so a subsystem
//     instruments unconditionally and a caller that passes no registry
//     pays one predictable branch per event.
//   - Registration is idempotent: asking for an existing (name, kind,
//     labels) family returns the same series, so independent subsystems
//     can share one registry without coordination. Re-registering a name
//     with a different shape panics — that is a wiring bug, not a
//     runtime condition.
//
// Registries are per-process by convention: per-peer series from two
// transport endpoints sharing one registry would merge. Encoding
// (WritePrometheus) takes the locks; scrapes observe each series
// atomically but not a cross-series snapshot.
//
// obs reads no clocks and owns no goroutines; it is exempt from the
// det-wallclock simulation rule by scope and opted into the err-drop
// delivery rule (an encoder that swallows a write error reports a
// truncated scrape as a healthy one).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the three metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move both ways. The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (CAS loop; safe under concurrent Set/Add).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation (send-queue depth, queue occupancy peaks).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bounded-bucket histogram: observations are counted into
// len(bounds)+1 cumulative-on-encode buckets plus a running sum and
// count. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implied after the last
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets is the default latency bucket layout (seconds), spanning
// sub-millisecond cache hits to minute-long cold computations.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %g after %g", bounds[i], bounds[i-1]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the total of all observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// series is one label-value combination of a family, holding exactly one
// live metric of the family's kind.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series // key: label values joined by '\xff'
}

// get resolves (creating if needed) the series for one label-value tuple.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := joinValues(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

func joinValues(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}

// Registry holds a process's metric families. A nil *Registry hands out
// nil handles, so instrumentation is wired unconditionally and disabled
// metrics cost one branch per event.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the family for name, creating it on first use and
// panicking if an existing family has a different kind or label set.
func (r *Registry) family(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic("obs: invalid label name " + l + " on metric " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !sameStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v%v, was %v%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabel checks the label-name grammar [a-zA-Z_][a-zA-Z0-9_]*.
func validLabel(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindCounter, nil, nil).get(nil).c
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindGauge, nil, nil).get(nil).g
}

// CounterVec is a counter family with labels; resolve handles With.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, labels, nil)}
}

// With resolves the counter for one label-value tuple. Resolution takes
// the family lock; cache the handle for hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values).c
}

// GaugeVec is a gauge family with labels; resolve handles With.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, labels, nil)}
}

// With resolves the gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(values).g
}

// HistogramVec is a histogram family with labels; resolve handles With.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family with the
// given bucket bounds (nil: DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, labels, bounds)}
}

// With resolves the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(values).h
}
