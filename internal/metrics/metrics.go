// Package metrics is a zero-dependency instrumentation registry for the
// serving and execution layers: atomic counters, gauges, function-backed
// series, and log-bucketed latency histograms, exposed in Prometheus text
// format v0.0.4 (see expo.go), plus the host-time span trees that requests,
// evaluations and compiles record (see span.go).
//
// Design rules, enforced throughout:
//
//   - Every public method is nil-safe. A nil *Registry hands out nil
//     collectors, and a nil collector's methods are no-ops. Instrumented
//     code therefore never branches on "metrics enabled" — the off path
//     is a single nil check inside the callee, keeping hot loops (and
//     the deterministic `bench -json` cycle counts) untouched.
//   - Registration is idempotent: asking for an existing name with the
//     same type and label set returns the same collector, so per-request
//     or per-search instrumentation can re-register freely. Conflicting
//     re-registration (different type or labels) panics — that is a
//     programming error, not a runtime condition.
//   - Label sets are small and bounded. Each family accepts at most
//     maxSeriesPerFamily distinct label-value combinations; beyond that,
//     new combinations collapse into a shared overflow series whose
//     label values are all "other". Unbounded label values (tenant names
//     from the wire) therefore cannot exhaust memory.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// maxSeriesPerFamily bounds distinct label-value combinations per family.
// The 65th and later combinations share one overflow series labeled
// "other" on every axis.
const maxSeriesPerFamily = 64

// overflowLabel is the label value used on every axis of the shared
// overflow series once a family exceeds maxSeriesPerFamily.
const overflowLabel = "other"

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them in a deterministic
// order. The zero value is not usable; call NewRegistry. All methods are
// safe for concurrent use, and safe on a nil receiver.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	scrapes  atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Scrapes reports how many times Handler served an exposition.
func (r *Registry) Scrapes() int64 {
	if r == nil {
		return 0
	}
	return r.scrapes.Load()
}

// family is one named metric with a fixed label schema and one series per
// distinct label-value combination.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string

	mu     sync.Mutex
	series map[string]*series
}

// series is one (family, label values) line. Exactly one of the value
// representations is live, selected by the family kind and by fn:
// n for counters/gauges, fn for function-backed series, h for histograms.
type series struct {
	values []string
	n      atomic.Int64
	fn     func() float64
	h      *histState
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// lookup returns the family for name, creating it on first use. It
// panics when name is invalid or already registered with a different
// type or label schema — both are programming errors.
func (r *Registry) lookup(name, help string, k kind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %q re-registered as %s%v, was %s%v",
				name, k, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   k,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
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

func seriesKey(values []string) string {
	k := ""
	for i, v := range values {
		if i > 0 {
			k += "\xff"
		}
		k += v
	}
	return k
}

// get returns the series for the given label values, creating it on
// first use and collapsing into the overflow series past the cap.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if len(f.series) >= maxSeriesPerFamily {
		ov := make([]string, len(f.labels))
		for i := range ov {
			ov[i] = overflowLabel
		}
		okey := seriesKey(ov)
		if s, ok := f.series[okey]; ok {
			return s
		}
		values = ov
		key = okey
	}
	s := &series{values: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		s.h = newHistState()
	}
	f.series[key] = s
	return s
}

// setFunc installs (or replaces) a function-backed series for the given
// label values.
func (f *family) setFunc(values []string, fn func() float64) {
	s := f.get(values)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// snapshot returns the family's series sorted by label values.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	f.mu.Unlock()
	return out
}

// Counter is a monotonically increasing integer series.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || c.s == nil || n < 0 {
		return
	}
	c.s.n.Add(n)
}

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil || c.s == nil {
		return 0
	}
	return c.s.n.Load()
}

// Gauge is an integer series that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.n.Store(n)
}

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.n.Add(n)
}

// Value reports the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil || g.s == nil {
		return 0
	}
	return g.s.n.Load()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return &Counter{s: v.f.get(values)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return &Gauge{s: v.f.get(values)}
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.lookup(name, help, kindCounter, nil).get(nil)}
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, labels)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.lookup(name, help, kindGauge, nil).get(nil)}
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labels)}
}

// GaugeFunc registers a gauge whose value is sampled from fn at
// exposition time. Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindGauge, nil).setFunc(nil, fn)
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time; fn must be monotonically non-decreasing.
// Re-registering replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindCounter, nil).setFunc(nil, fn)
}

// LabeledGaugeFunc registers one function-backed series of a labeled
// gauge family. Re-registering the same label values replaces fn.
func (r *Registry) LabeledGaugeFunc(name, help string, labels, values []string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindGauge, labels).setFunc(values, fn)
}

// LabeledCounterFunc registers one function-backed series of a labeled
// counter family; fn must be monotonically non-decreasing.
// Re-registering the same label values replaces fn.
func (r *Registry) LabeledCounterFunc(name, help string, labels, values []string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindCounter, labels).setFunc(values, fn)
}

// Histogram registers (or finds) an unlabeled latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return &Histogram{s: r.lookup(name, help, kindHistogram, nil).get(nil)}
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labels)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return &Histogram{s: v.f.get(values)}
}
