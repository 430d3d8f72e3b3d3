package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"plasticine/internal/compiler"
	"plasticine/internal/core"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
	"plasticine/internal/trace"
	"plasticine/internal/workloads"
)

// reqClass buckets endpoints by cost for admission purposes.
type reqClass int

const (
	// classCheap requests (explain) bypass the dispatch queue: they run
	// inline on the handler goroutine, cost a fraction of a quota token,
	// and are still served while the queue sheds — degrade, don't die.
	classCheap reqClass = iota
	// classNormal requests (compile, run, profile) take one token and one
	// queue slot.
	classNormal
	// classHeavy requests (sweeps) take one token and are the first shed:
	// they are refused once the queue crosses the shed watermark.
	classHeavy
)

// errorBody is the JSON shape of every non-2xx answer.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_sec,omitempty"`
}

// routes builds the endpoint table.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.Handle("/metricsz", s.met.reg.Handler())
	mux.HandleFunc("/debugz/requests", s.handleDebugRequests)
	mux.HandleFunc("/v1/compile", s.unary(classNormal, s.runCompile))
	mux.HandleFunc("/v1/run", s.unary(classNormal, s.runBenchmark))
	mux.HandleFunc("/v1/profile", s.unary(classNormal, s.runProfile))
	mux.HandleFunc("/v1/explain", s.unary(classCheap, s.runExplain))
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/tune", s.handleTune)
	if s.cfg.FaultInjection {
		mux.HandleFunc("/debugz/panic", s.unary(classNormal, func(ctx context.Context, r *http.Request) (any, error) {
			panic("fault injection: /debugz/panic")
		}))
	}
	if s.cfg.Debug {
		// CPU/heap/goroutine profiling for a live server, gated behind
		// -debug: the profile endpoints can stall a request for seconds
		// and belong off in hardened deployments.
		for _, p := range []string{"heap", "goroutine", "allocs", "block", "mutex", "threadcreate"} {
			mux.Handle("/debugz/pprof/"+p, pprof.Handler(p))
		}
		mux.HandleFunc("/debugz/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debugz/pprof/trace", pprof.Trace)
		mux.HandleFunc("/debugz/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debugz/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debugz/pprof/", pprof.Index)
	}
	return mux
}

// tenantOf identifies the requesting tenant: X-Tenant header, then the
// tenant query parameter, then "anon".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "anon"
}

// requestContext derives the job context: the client's deadline (timeout
// query parameter or X-Timeout header, clamped to MaxDeadline, defaulted to
// DefaultDeadline) on top of the request context, all cut loose when the
// drain budget expires (hardCtx).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		raw = r.Header.Get("X-Timeout")
	}
	d := s.cfg.DefaultDeadline
	if raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q: want a positive Go duration like 30s", raw)
		}
		d = parsed
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }, nil
}

// writeJSON marshals before committing the status line, so an unencodable
// value becomes a 500 rather than a 200 with a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := safeMarshal(v, true)
	if err != nil {
		data, status = []byte(`{"error":"internal: response is not JSON-encodable"}`), http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	w.Write([]byte("\n"))
}

// setRetryAfter stamps the Retry-After header from a wait estimate,
// rounded up to whole seconds with a 1s floor (never tell a client to
// retry sooner than the estimate), and returns the stamped value. Every
// Retry-After the server emits — quota denials, shed 429s, drain 503s,
// and the draining /readyz — goes through here, so the header and the
// JSON body cannot drift apart again.
func setRetryAfter(w http.ResponseWriter, d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	return sec
}

func writeError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	body := errorBody{Error: msg}
	if retryAfter > 0 {
		body.RetryAfter = setRetryAfter(w, retryAfter)
	}
	writeJSON(w, status, body)
}

// statusOf maps an evaluation error to its HTTP status: panics are the
// server's fault (500), deadline expiry is 504, cancellation is the drain
// path (503), and everything else — compile failures, infeasible mappings,
// functional-check mismatches — is a well-formed negative answer about the
// request itself (422).
func statusOf(err error) int {
	var pe *exec.PanicError
	var nf notFoundError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.As(err, &nf):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// job is one queued request: the dispatcher runs run under ctx and delivers
// through done. tenant and enq feed the queue-wait and service-time
// histograms; zero values simply skip those observations. queue is the
// request's queue span, which the dispatcher ends when it picks the job up.
type job struct {
	ctx    context.Context
	run    func(context.Context) (any, error)
	val    any
	err    error
	done   chan struct{}
	tenant string
	enq    time.Time
	queue  *metrics.Span
}

func (j *job) finish(v any, err error) {
	j.val, j.err = v, err
	close(j.done)
}

// enterRequest is the gated front half of admission: drain check, tenant
// quota, and in-flight registration, all under the admission gate so a
// request is either fully registered before a drain's inflight.Wait or
// refused — never half-admitted. On false the response has been written;
// on true the caller owes one inflight.Done.
func (s *Server) enterRequest(w http.ResponseWriter, tenant string, cost float64) bool {
	s.admitMu.RLock()
	if s.draining() {
		s.admitMu.RUnlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining", time.Second)
		return false
	}
	if ok, retryAfter := s.adm.take(tenant, cost); !ok {
		s.admitMu.RUnlock()
		s.adm.count(tenant, func(c *TenantCounters) { c.QuotaDenied++ })
		s.met.quotaDenied.With(tenant).Inc()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q is over its request quota", tenant), retryAfter)
		return false
	}
	s.requests.Add(1)
	s.adm.count(tenant, func(c *TenantCounters) { c.Admitted++ })
	s.inflight.Add(1)
	s.admitMu.RUnlock()
	return true
}

// admit runs the shared admission pipeline: drain check, tenant quota,
// shedding, queueing, and execution (inline for cheap requests, via a
// dispatcher slot otherwise). On a non-nil error the response has already
// been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, class reqClass, run func(context.Context) (any, error)) (any, error, bool) {
	tenant := tenantOf(r)
	cost := 1.0
	if class == classCheap {
		cost = CheapCost
	}
	_, admission := metrics.Start(r.Context(), "admission")
	if !s.enterRequest(w, tenant, cost) {
		admission.End()
		return nil, nil, false
	}
	defer s.inflight.Done()

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		admission.End()
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return nil, nil, false
	}
	defer cancel()
	admission.End()

	record := func(err error) {
		s.adm.count(tenant, func(c *TenantCounters) {
			if err == nil {
				c.Completed++
			} else {
				c.Failed++
			}
		})
	}

	if class == classCheap {
		v, err := runIsolated(ctx, run)
		record(err)
		return v, err, true
	}

	if class == classHeavy && s.queue.Len() >= s.cfg.ShedWatermark {
		s.shedRequest(tenant)
		writeError(w, http.StatusTooManyRequests,
			"queue past its shed watermark; retry later", s.estimatedWait())
		return nil, nil, false
	}
	// The queue phase runs from Push to the dispatcher picking the job up.
	j := &job{ctx: ctx, run: run, tenant: tenant, enq: s.cfg.now(), done: make(chan struct{})}
	_, j.queue = metrics.Start(ctx, "queue")
	weight := s.cfg.TenantWeights[tenant]
	if err := s.queue.Push(tenant, weight, j); err != nil {
		switch {
		case errors.Is(err, exec.ErrQueueFull):
			s.shedRequest(tenant)
			writeError(w, http.StatusTooManyRequests, "queue full; retry later", s.estimatedWait())
		default: // closed: drain won the race
			writeError(w, http.StatusServiceUnavailable, "server is draining", time.Second)
		}
		return nil, nil, false
	}
	select {
	case <-j.done:
		record(j.err)
		return j.val, j.err, true
	case <-ctx.Done():
		// Deadline or drain cut-off while queued or mid-execution; the
		// dispatcher discards the orphaned job when it reaches it.
		record(ctx.Err())
		writeError(w, statusOf(ctx.Err()), requestDeathMessage(ctx), 0)
		return nil, nil, false
	}
}

// requestDeathMessage phrases a dead request context for the client.
func requestDeathMessage(ctx context.Context) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return "deadline exceeded before the evaluation finished"
	}
	return "request canceled"
}

// unary wraps an endpoint body in the admission pipeline and JSON response
// writing.
func (s *Server) unary(class reqClass, body func(context.Context, *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err, handled := s.admit(w, r, class, func(ctx context.Context) (any, error) {
			return body(ctx, r)
		})
		if !handled {
			return
		}
		if err != nil {
			var pe *exec.PanicError
			if errors.As(err, &pe) {
				// The stack goes to the log, not the client.
				s.met.panics.Inc()
				s.cfg.Logf("request panic (isolated): %v", pe.Value)
				writeError(w, http.StatusInternalServerError, "internal: request evaluation panicked", 0)
				return
			}
			writeError(w, statusOf(err), err.Error(), 0)
			return
		}
		_, marshal := metrics.Start(r.Context(), "marshal")
		writeJSON(w, http.StatusOK, v)
		marshal.End()
	}
}

// benchParam resolves the bench query parameter to a benchmark.
func benchParam(r *http.Request) (workloads.Benchmark, error) {
	name := r.URL.Query().Get("bench")
	if name == "" {
		return nil, errors.New("missing bench parameter (see plasticine list)")
	}
	return workloads.ByName(name)
}

// notFoundAsStatus maps a missing-benchmark error to 404 in unary bodies by
// tagging it; the default mapping would call it 422.
type notFoundError struct{ error }

func (s *Server) resolveBench(r *http.Request) (workloads.Benchmark, error) {
	b, err := benchParam(r)
	if err != nil {
		return nil, notFoundError{err}
	}
	return b, nil
}

// compileResponse is /v1/compile's answer.
type compileResponse struct {
	Bench     string               `json:"bench"`
	Summary   string               `json:"summary"`
	Util      compiler.Utilization `json:"util"`
	Bitstream json.RawMessage      `json:"bitstream,omitempty"`
}

func (s *Server) runCompile(ctx context.Context, r *http.Request) (any, error) {
	b, err := s.resolveBench(r)
	if err != nil {
		return nil, err
	}
	_, span := metrics.Start(ctx, "build")
	p, err := b.Program()
	span.EndWith("", nil, err)
	if err != nil {
		return nil, err
	}
	m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: s.sess.Params()})
	if err != nil {
		return nil, err
	}
	resp := &compileResponse{Bench: b.Name(), Summary: m.Summary(), Util: m.Util}
	if r.URL.Query().Get("bitstream") == "1" {
		var buf bytes.Buffer
		if err := compiler.GenerateBitstream(m).Encode(&buf); err != nil {
			return nil, err
		}
		resp.Bitstream = json.RawMessage(buf.Bytes())
	}
	return resp, nil
}

func (s *Server) runBenchmark(ctx context.Context, r *http.Request) (any, error) {
	b, err := s.resolveBench(r)
	if err != nil {
		return nil, err
	}
	return s.sess.RunBenchmark(ctx, b)
}

// profileResponse is /v1/profile's answer: the evaluation row plus the
// cycle-accounting reports (the Chrome trace export stays a CLI affair).
type profileResponse struct {
	Bench   *core.BenchResult    `json:"bench"`
	Report  *trace.Report        `json:"report"`
	Pattern *trace.PatternReport `json:"by_pattern"`
}

func (s *Server) runProfile(ctx context.Context, r *http.Request) (any, error) {
	b, err := s.resolveBench(r)
	if err != nil {
		return nil, err
	}
	p, err := s.sess.Profile(ctx, b)
	if err != nil {
		return nil, err
	}
	return &profileResponse{Bench: p.Bench, Report: p.Report, Pattern: p.Pattern}, nil
}

func (s *Server) runExplain(ctx context.Context, r *http.Request) (any, error) {
	b, err := s.resolveBench(r)
	if err != nil {
		return nil, err
	}
	return s.sess.Explain(ctx, b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		// A draining server never becomes ready again; 1s just tells the
		// load balancer to probe somewhere else soon.
		setRetryAfter(w, time.Second)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// Stats is the /statsz document: one snapshot of the serving state, used by
// operators, the soak test's goroutine-leak check, and the load-shedding
// examples in the README.
type Stats struct {
	State            string  `json:"state"`
	UptimeSec        float64 `json:"uptime_sec"`
	Requests         int64   `json:"requests"`
	QueueDepth       int     `json:"queue_depth"`
	QueueCap         int     `json:"queue_cap"`
	ShedWatermark    int     `json:"shed_watermark"`
	SlotsBusy        int     `json:"slots_busy"`
	Slots            int     `json:"slots"`
	PoolRunning      int     `json:"pool_running"`
	Goroutines       int     `json:"goroutines"`
	EstimatedWaitSec float64 `json:"estimated_wait_sec"`

	// StreamsActive counts committed NDJSON streams currently open (sweeps
	// and tunes); TuneActive counts admitted /v1/tune searches specifically.
	// A drain that hangs shows up here first.
	StreamsActive int `json:"streams_active"`
	TuneActive    int `json:"tune_active"`

	TenantQueues map[string]int            `json:"tenant_queues,omitempty"`
	Tenants      map[string]TenantCounters `json:"tenants,omitempty"`

	// Totals aggregates every tenant's admission ledger, so dashboards get
	// fleet-wide shed/denied rates without summing the per-tenant map.
	Totals TenantCounters `json:"totals"`

	Cache      exec.CacheStats `json:"cache"`
	JobRetries int64           `json:"job_retries"`

	// Build identifies the binary (module version, VCS revision, Go
	// toolchain) and MetricsScrapes counts /metricsz expositions served,
	// so dashboards can correlate this snapshot with scrape data.
	Build          metrics.BuildInfo `json:"build"`
	MetricsScrapes int64             `json:"metrics_scrapes"`
}

// snapshotStats assembles the /statsz document.
func (s *Server) snapshotStats() Stats {
	state := "serving"
	switch s.state.Load() {
	case stateDraining:
		state = "draining"
	case stateStopped:
		state = "stopped"
	}
	tenants := s.adm.snapshot()
	var totals TenantCounters
	for _, c := range tenants {
		totals.Admitted += c.Admitted
		totals.Completed += c.Completed
		totals.Failed += c.Failed
		totals.Shed += c.Shed
		totals.QuotaDenied += c.QuotaDenied
	}
	return Stats{
		State:            state,
		UptimeSec:        s.cfg.now().Sub(s.start).Seconds(),
		Requests:         s.requests.Load(),
		QueueDepth:       s.queue.Len(),
		QueueCap:         s.queue.Cap(),
		ShedWatermark:    s.cfg.ShedWatermark,
		SlotsBusy:        int(s.busy.Load()),
		Slots:            s.cfg.Concurrency,
		PoolRunning:      s.sess.Engine().Pool().Running(),
		Goroutines:       runtime.NumGoroutine(),
		EstimatedWaitSec: s.estimatedWait().Seconds(),
		StreamsActive:    int(s.streams.Load()),
		TuneActive:       int(s.tunes.Load()),
		TenantQueues:     s.queue.Depths(),
		Tenants:          tenants,
		Totals:           totals,
		Cache:            s.sess.CacheStats(),
		JobRetries:       s.sess.Retries(),
		Build:            metrics.GetBuildInfo(),
		MetricsScrapes:   s.met.reg.Scrapes(),
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotStats())
}
