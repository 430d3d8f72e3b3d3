package serve

// Service observability: the Prometheus registry wiring (/metricsz), the
// request-ID middleware that roots each request's span tree, the bounded
// ring of recent request records (/debugz/requests), the JSON access log,
// and the slow-request log. Everything here is a side channel — metrics
// and traces never influence admission, dispatch or evaluation, and the
// collectors are nil-safe, so the deterministic outputs the CI diffs are
// untouched.

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"plasticine/internal/dse"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
	"plasticine/internal/tune"
)

// serverMetrics bundles the hot-path collectors so handlers touch fields,
// not the registry's name-lookup path.
type serverMetrics struct {
	reg         *metrics.Registry
	requests    *metrics.CounterVec   // route, status
	duration    *metrics.HistogramVec // route
	queueWait   *metrics.HistogramVec // tenant
	serviceTime *metrics.HistogramVec // tenant
	shed        *metrics.CounterVec   // tenant
	quotaDenied *metrics.CounterVec   // tenant
	panics      *metrics.Counter
	slow        *metrics.Counter
}

// registerMetrics builds the server's metric families on reg. Gauge and
// counter functions close over the server and are sampled at scrape
// time, so existing atomics (queue depth, pool occupancy, cache stats)
// export without double bookkeeping. Metric naming scheme: every family
// is plasticine_<noun>_<unit-or-total>; histograms are _seconds; tiered
// counters share one family with a tier label.
func (s *Server) registerMetrics(reg *metrics.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}
	m.requests = reg.CounterVec("plasticine_http_requests_total",
		"HTTP requests completed, by route and status code.", "route", "status")
	m.duration = reg.HistogramVec("plasticine_http_request_duration_seconds",
		"Wall time per HTTP request, by route.", "route")
	m.queueWait = reg.HistogramVec("plasticine_queue_wait_seconds",
		"Time queued requests waited for a dispatcher slot, by tenant.", "tenant")
	m.serviceTime = reg.HistogramVec("plasticine_service_time_seconds",
		"Dispatcher execution time per queued request, by tenant.", "tenant")
	m.shed = reg.CounterVec("plasticine_requests_shed_total",
		"Requests shed with 429 (watermark or full queue), by tenant.", "tenant")
	m.quotaDenied = reg.CounterVec("plasticine_quota_denied_total",
		"Requests refused by the tenant token bucket, by tenant.", "tenant")
	m.panics = reg.Counter("plasticine_request_panics_total",
		"Request evaluations that panicked and were isolated.")
	m.slow = reg.Counter("plasticine_slow_requests_total",
		"Requests whose wall time crossed the slow-request threshold.")

	reg.RegisterBuildInfo("plasticine_build_info")
	reg.GaugeFunc("plasticine_queue_depth",
		"Requests waiting in the admission queue.",
		func() float64 { return float64(s.queue.Len()) })
	reg.GaugeFunc("plasticine_dispatchers_busy",
		"Dispatcher slots currently executing a request.",
		func() float64 { return float64(s.busy.Load()) })
	reg.GaugeFunc("plasticine_dispatcher_slots",
		"Total dispatcher slots.",
		func() float64 { return float64(s.cfg.Concurrency) })
	reg.GaugeFunc("plasticine_streams_active",
		"Committed NDJSON streams currently open (sweeps and tunes).",
		func() float64 { return float64(s.streams.Load()) })
	reg.GaugeFunc("plasticine_tune_searches_active",
		"/v1/tune searches currently admitted.",
		func() float64 { return float64(s.tunes.Load()) })
	reg.GaugeFunc("plasticine_goroutines",
		"Goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("plasticine_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return s.cfg.now().Sub(s.start).Seconds() })
	reg.GaugeFunc("plasticine_pool_running",
		"Evaluation-pool workers currently running jobs.",
		func() float64 { return float64(s.sess.Engine().Pool().Running()) })
	reg.CounterFunc("plasticine_job_retries_total",
		"Evaluation job retries under the engine's policy.",
		func() float64 { return float64(s.sess.Retries()) })

	failed := func(class string, pick func(t, p int64) int64) {
		reg.LabeledCounterFunc("plasticine_jobs_failed_total",
			"Evaluation jobs that failed after the retry budget, by class.",
			[]string{"class"}, []string{class},
			func() float64 { t, p := s.sess.Engine().FailedJobs(); return float64(pick(t, p)) })
	}
	failed("transient", func(t, _ int64) int64 { return t })
	failed("permanent", func(_, p int64) int64 { return p })

	tiered := func(name, help, tier string, get func(exec.CacheStats) int64) {
		reg.LabeledCounterFunc(name, help, []string{"tier"}, []string{tier},
			func() float64 { return float64(get(s.sess.CacheStats())) })
	}
	tiered("plasticine_cache_hits_total", "Design-point cache hits, by tier.",
		"memory", func(c exec.CacheStats) int64 { return c.Hits })
	tiered("plasticine_cache_hits_total", "Design-point cache hits, by tier.",
		"disk", func(c exec.CacheStats) int64 { return c.DiskHits })
	tiered("plasticine_cache_misses_total", "Design-point cache misses, by tier.",
		"memory", func(c exec.CacheStats) int64 { return c.Misses })
	tiered("plasticine_cache_writes_total", "Design-point cache writes, by tier.",
		"disk", func(c exec.CacheStats) int64 { return c.DiskWrites })
	tiered("plasticine_cache_evictions_total", "Design-point cache evictions, by tier.",
		"disk", func(c exec.CacheStats) int64 { return c.Evictions })
	tiered("plasticine_cache_quarantined_total", "Corrupt cache entries quarantined, by tier.",
		"disk", func(c exec.CacheStats) int64 { return c.Quarantined })

	// Pre-register the tuner's and the DSE driver's families so the very
	// first scrape shows them (at zero) instead of them popping into
	// existence after the first search; registration is idempotent, so
	// the search attaches to these same collectors.
	tune.RegisterSearchMetrics(reg)
	dse.RegisterMetrics(reg)
	return m
}

// routeLabel maps a request path to a bounded label value: known routes
// keep their path, the pprof subtree collapses, everything else (404
// probes, scanner noise) is "other" so arbitrary paths cannot mint
// series.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/readyz", "/statsz", "/metricsz",
		"/v1/compile", "/v1/run", "/v1/profile", "/v1/explain",
		"/v1/sweep", "/v1/tune", "/debugz/panic", "/debugz/requests":
		return path
	}
	if strings.HasPrefix(path, "/debugz/pprof/") {
		return "/debugz/pprof"
	}
	return "other"
}

// tracedRoute reports whether a path gets a request trace, a ring entry
// and an access-log line. Infra endpoints (health probes, scrapes,
// the debug surfaces themselves) are excluded so a 10s-interval scraper
// doesn't flood the ring.
func tracedRoute(path string) bool {
	return strings.HasPrefix(path, "/v1/") || path == "/debugz/panic"
}

// statusWriter captures the response status for metrics and the access
// log. It always implements http.Flusher (delegating when the underlying
// writer supports it) so NDJSON streaming keeps working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// nextRequestID mints a process-unique request ID: start-time prefix so
// IDs from different server incarnations don't collide in shared logs,
// sequence suffix for uniqueness within one.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%08x-%06d", uint32(s.start.UnixNano()>>10), s.reqSeq.Add(1))
}

// requestRecord is one completed request in the /debugz/requests ring and
// one line of the access log: a snapshot of the request's span tree taken
// when its response was written. Phases are the root's children — the
// sequential admission, queue, run and marshal phases — with everything
// the request recorded nested below them.
type requestRecord struct {
	ID     string    `json:"id"`
	Tenant string    `json:"tenant"`
	Route  string    `json:"route"`
	Status int       `json:"status"`
	Start  time.Time `json:"start"`
	WallUS int64     `json:"wall_us"`
	// PhaseUS sums the top-level phases, which run one after another, so
	// it never exceeds WallUS; the gap is uninstrumented overhead.
	PhaseUS int64 `json:"phase_us"`
	Slow    bool  `json:"slow,omitempty"`
	// Dropped counts the spans the tree refused past metrics.MaxSpans.
	Dropped int             `json:"dropped,omitempty"`
	Phases  []*metrics.Span `json:"phases,omitempty"`
}

// traceRing is a fixed-size ring of recent request records.
type traceRing struct {
	mu   sync.Mutex
	buf  []requestRecord
	next int
	full bool
}

func newTraceRing(n int) *traceRing { return &traceRing{buf: make([]requestRecord, n)} }

func (g *traceRing) add(rec requestRecord) {
	g.mu.Lock()
	g.buf[g.next] = rec
	g.next++
	if g.next == len(g.buf) {
		g.next, g.full = 0, true
	}
	g.mu.Unlock()
}

// snapshot returns the ring's records, newest first.
func (g *traceRing) snapshot() []requestRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.next
	if g.full {
		n = len(g.buf)
	}
	out := make([]requestRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, g.buf[(g.next-i+len(g.buf))%len(g.buf)])
	}
	return out
}

// instrument is the middleware around the whole mux: route/status
// metrics for every request, plus — for /v1 routes — request-ID
// assignment (accepted from X-Request-Id or generated), a span tree rooted
// in the request context, the trace ring, the access log, and the
// slow-request log.
func (s *Server) instrument(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

	var root *metrics.Span
	var id string
	if tracedRoute(path) {
		id = r.Header.Get("X-Request-Id")
		if id == "" {
			id = s.nextRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		var ctx context.Context
		ctx, root = metrics.Start(r.Context(), path)
		r = r.WithContext(ctx)
	}

	s.mux.ServeHTTP(sw, r)

	wall := time.Since(start)
	route := routeLabel(path)
	s.met.requests.With(route, strconv.Itoa(sw.status)).Inc()
	s.met.duration.With(route).Observe(wall.Seconds())
	if root != nil {
		root.End()
		s.finishTrace(requestRecord{ID: id, Tenant: tenantOf(r), Route: path, Status: sw.status, Start: start}, root)
	}
}

// finishTrace fills rec from a snapshot of the request's ended span tree
// and files it as a ring entry, an access-log line, and — past the
// threshold — a slow-request log line. Jobs still running under the
// request (a deadline answered while its evaluation finishes) keep
// recording into the live tree, never into the record.
func (s *Server) finishTrace(rec requestRecord, root *metrics.Span) {
	snap := root.Snapshot()
	var phases float64
	for _, ph := range snap.Children {
		phases += ph.DurUS
	}
	wall := time.Duration(snap.DurUS * 1e3)
	rec.WallUS, rec.PhaseUS = int64(snap.DurUS), int64(phases)
	rec.Slow = s.cfg.SlowRequest > 0 && wall >= s.cfg.SlowRequest
	rec.Dropped, rec.Phases = snap.Dropped, snap.Children
	s.ring.add(rec)
	if s.cfg.AccessLog != nil {
		if line, err := safeMarshal(rec, false); err == nil {
			s.accessMu.Lock()
			s.cfg.AccessLog.Write(append(line, '\n'))
			s.accessMu.Unlock()
		}
	}
	if rec.Slow {
		s.met.slow.Inc()
		s.cfg.Logf("slow request id=%s route=%s tenant=%s status=%d wall=%s phases=%s",
			rec.ID, rec.Route, rec.Tenant, rec.Status, wall.Round(time.Millisecond), formatPhases(rec.Phases, rec.Dropped))
	}
}

// formatPhases renders a request's span tree for log lines, one
// path=duration per span: "queue=1ms run=9.8s run/compile=30ms
// run/compile/place=90µs ... marshal=40µs".
func formatPhases(phases []*metrics.Span, dropped int) string {
	var parts, path []string
	for _, ph := range phases {
		ph.Walk(func(sp *metrics.Span, depth int) {
			path = append(path[:depth], sp.Name)
			parts = append(parts, fmt.Sprintf("%s=%s", strings.Join(path, "/"),
				time.Duration(sp.DurUS*1e3).Round(time.Microsecond)))
		})
	}
	if dropped > 0 {
		parts = append(parts, fmt.Sprintf("dropped=%d", dropped))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// debugRequestsDoc is the /debugz/requests response.
type debugRequestsDoc struct {
	Capacity         int             `json:"capacity"`
	SlowThresholdSec float64         `json:"slow_threshold_sec"`
	Requests         []requestRecord `json:"requests"`
}

// handleDebugRequests serves the trace ring, newest first.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, debugRequestsDoc{
		Capacity:         len(s.ring.buf),
		SlowThresholdSec: s.cfg.SlowRequest.Seconds(),
		Requests:         s.ring.snapshot(),
	})
}

// shedRequest records one shed decision in both ledgers (the /statsz
// tenant counters and the metrics registry).
func (s *Server) shedRequest(tenant string) {
	s.adm.count(tenant, func(c *TenantCounters) { c.Shed++ })
	s.met.shed.With(tenant).Inc()
}
