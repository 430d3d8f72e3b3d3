package metrics

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func expo(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestExpositionGolden pins the full text format: HELP/TYPE lines, label
// escaping, and deterministic family/series ordering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "Requests by route and status.", "route", "status")
	v.With("/v1/run", "200").Add(3)
	v.With("/v1/run", "429").Inc()
	r.Gauge("test_depth", "Queue depth.").Set(5)
	r.GaugeFunc("test_temp", "Func gauge.", func() float64 { return 1.5 })
	r.CounterVec("test_weird_total", "Help with \\ backslash\nand newline.", "name").
		With("a\"b\\c\nd").Inc()

	want := `# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 5
# HELP test_requests_total Requests by route and status.
# TYPE test_requests_total counter
test_requests_total{route="/v1/run",status="200"} 3
test_requests_total{route="/v1/run",status="429"} 1
# HELP test_temp Func gauge.
# TYPE test_temp gauge
test_temp 1.5
# HELP test_weird_total Help with \\ backslash\nand newline.
# TYPE test_weird_total counter
test_weird_total{name="a\"b\\c\nd"} 1
`
	if got := expo(t, r); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// A second render must be byte-identical (deterministic ordering).
	if got := expo(t, r); got != want {
		t.Errorf("second render differs from first")
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_lat_seconds", "Latency.", "tier")
	h.With("mem").Observe(0.001)
	h.With("mem").Observe(1.0)
	out := expo(t, r)

	for _, want := range []string{
		"# TYPE test_lat_seconds histogram\n",
		`test_lat_seconds_bucket{tier="mem",le="9.5367431640625e-07"} 0` + "\n",
		`test_lat_seconds_bucket{tier="mem",le="+Inf"} 2` + "\n",
		`test_lat_seconds_sum{tier="mem"} 1.001` + "\n",
		`test_lat_seconds_count{tier="mem"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Bucket lines must be cumulative and non-decreasing, ending at the
	// total count.
	prev, buckets := int64(-1), 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "test_lat_seconds_bucket") {
			continue
		}
		buckets++
		n, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("bucket counts decreased: %d after %d in %q", n, prev, line)
		}
		prev = n
	}
	if buckets != numBuckets+1 {
		t.Errorf("got %d bucket lines, want %d", buckets, numBuckets+1)
	}
	if prev != 2 {
		t.Errorf("+Inf bucket = %d, want 2", prev)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "h").Add(2)
	r.Counter("test_total", "h").Add(3)
	if got := r.Counter("test_total", "h").Value(); got != 5 {
		t.Errorf("re-registered counter = %d, want 5", got)
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"type", func(r *Registry) { r.Counter("test_x", ""); r.Gauge("test_x", "") }},
		{"labels", func(r *Registry) { r.CounterVec("test_x", "", "a"); r.CounterVec("test_x", "", "b") }},
		{"badname", func(r *Registry) { r.Counter("9bad", "") }},
		{"badlabel", func(r *Registry) { r.CounterVec("test_x", "", "le gal") }},
		{"arity", func(r *Registry) { r.CounterVec("test_x", "", "a").With("1", "2") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestSeriesOverflow pins the label budget: past maxSeriesPerFamily
// distinct combinations, new values collapse into one "other" series so
// wire-supplied labels (tenant names) cannot exhaust memory.
func TestSeriesOverflow(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_tenants_total", "", "tenant")
	const distinct = maxSeriesPerFamily + 6
	for i := 0; i < distinct; i++ {
		v.With(fmt.Sprintf("t%02d", i)).Inc()
	}
	if got := v.With(overflowLabel).Value(); got != 6 {
		t.Errorf("overflow series = %d, want 6", got)
	}
	out := expo(t, r)
	lines := strings.Count(out, "test_tenants_total{")
	if lines != maxSeriesPerFamily+1 {
		t.Errorf("got %d series, want %d", lines, maxSeriesPerFamily+1)
	}
}

func TestGaugeAndFuncs(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_g", "")
	g.Set(5)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	n := 0.0
	r.CounterFunc("test_cf_total", "", func() float64 { n++; return n })
	out := expo(t, r)
	if !strings.Contains(out, "test_cf_total 1\n") {
		t.Errorf("counter func not sampled:\n%s", out)
	}
	vals := []string{"a", "b"}
	r.LabeledCounterFunc("test_lcf_total", "", []string{"x", "y"}, vals, func() float64 { return 9 })
	if !strings.Contains(expo(t, r), `test_lcf_total{x="a",y="b"} 9`) {
		t.Error("labeled counter func missing")
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "")
	c.Add(4)
	c.Add(-10)
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4 (negative Add must be ignored)", c.Value())
	}
}

func TestHandlerAndScrapes(t *testing.T) {
	r := NewRegistry()
	r.RegisterBuildInfo("test_build_info")
	r.Counter("test_total", "t").Inc()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "test_total 1\n") {
		t.Errorf("body missing counter:\n%s", body)
	}
	if !strings.Contains(body, `test_build_info{goversion="go`) {
		t.Errorf("body missing build info:\n%s", body)
	}
	if got := r.Scrapes(); got != 1 {
		t.Errorf("scrapes = %d, want 1", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.CounterVec("a", "", "l").With("v").Add(2)
	r.Gauge("a", "").Set(1)
	r.GaugeFunc("a", "", func() float64 { return 1 })
	r.CounterFunc("a", "", func() float64 { return 1 })
	r.LabeledGaugeFunc("a", "", []string{"l"}, []string{"v"}, func() float64 { return 1 })
	r.LabeledCounterFunc("a", "", []string{"l"}, []string{"v"}, func() float64 { return 1 })
	r.RegisterBuildInfo("b")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if r.Scrapes() != 0 {
		t.Error("nil Scrapes != 0")
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	if rec.Code != 404 {
		t.Errorf("nil handler status = %d, want 404", rec.Code)
	}
}
