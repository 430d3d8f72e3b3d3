// Package serve is the long-running multi-tenant evaluation service: an
// HTTP/JSON API over one shared core.Session, so many tenants exploring the
// same design space share one worker pool and one content-addressed
// design-point cache — identical in-flight points coalesce through the
// cache's singleflight protocol, and a point any tenant has evaluated is a
// hit for every other tenant.
//
// The robustness spine, in request order:
//
//   - Admission: every request consumes from its tenant's token bucket
//     (quota), then queues into a bounded fair queue; dispatchers dequeue
//     across tenants in equal shares onto the execution slots, so no
//     tenant's flood starves another.
//   - Load shedding: when the queue crosses its shed watermark (heavy
//     requests) or its bound (all requests), the server answers 429 with a
//     Retry-After estimate instead of accepting work it cannot finish.
//     Cheap requests (explain) bypass the queue and are still served while
//     heavy traffic sheds: the service degrades, it does not die.
//   - Deadlines: the client's deadline becomes the request context, flows
//     through compile passes and simulator poll windows, and composes with
//     the session's per-attempt exec.JobPolicy.Timeout; expiry is 504.
//   - Panic isolation: a panicking evaluation is recovered into an
//     exec.PanicError and answered with 500 — the process never dies for
//     one request.
//   - Graceful drain: Shutdown stops admission (503), lets in-flight
//     requests finish within the drain budget, hard-cancels the stragglers,
//     and flushes the persistent cache tier before returning.
//
// Long sweeps stream NDJSON progress events with heartbeats so clients can
// tell a slow sweep from a dead server. /statsz exposes queue depth,
// per-tenant admission/shed counters and cache hit rates.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plasticine/internal/core"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
)

// Config parameterises a Server. The zero value of every field except
// Session is usable: defaults are filled in by New.
type Config struct {
	// Session is the shared evaluation facade all tenants draw from.
	// Required. The server owns its lifecycle: Shutdown closes it.
	Session *core.Session

	// QueueDepth bounds the admission queue (default 64). A Push beyond it
	// is shed with 429.
	QueueDepth int

	// ShedWatermark is the queue depth at and beyond which heavy requests
	// (sweeps) are shed while normal ones still queue (default ¾ of
	// QueueDepth, minimum 1).
	ShedWatermark int

	// Concurrency is the number of dispatcher slots executing queued
	// requests (default Session.Workers()). Sweeps additionally fan out
	// inside the session's own pool.
	Concurrency int

	// TenantRate and TenantBurst parameterise each tenant's token bucket:
	// sustained requests/second and burst capacity (defaults 10 and 20).
	// Cheap requests cost CheapCost tokens instead of 1.
	TenantRate  float64
	TenantBurst float64

	// DefaultDeadline applies when the client sends no timeout (default
	// 60s); MaxDeadline clamps client-supplied timeouts (default 10m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// DrainBudget bounds Shutdown: in-flight requests get this long to
	// finish before their contexts are hard-canceled (default 15s).
	DrainBudget time.Duration

	// Heartbeat is the NDJSON heartbeat interval for streaming sweeps
	// (default 1s).
	Heartbeat time.Duration

	// FaultInjection enables /debugz/panic, an endpoint whose job panics on
	// purpose. It exists so the soak test can prove panic isolation against
	// a live server; leave it off in real deployments.
	FaultInjection bool

	// Metrics is the instrumentation registry /metricsz exposes (default: a
	// fresh registry). The server installs it on the session too, so tuner
	// and DSE counters land in the same exposition.
	Metrics *metrics.Registry

	// Debug mounts net/http/pprof under /debugz/pprof/ (the CLI's -debug
	// flag). The trace ring at /debugz/requests is always on — it holds
	// nothing sensitive and is how operators debug slow requests.
	Debug bool

	// SlowRequest is the wall-time threshold at and past which a completed
	// /v1 request is logged through Logf and counted (default 10s;
	// negative disables).
	SlowRequest time.Duration

	// AccessLog, when set, receives one compact JSON line per completed
	// /v1 request (the requestRecord shape served at /debugz/requests).
	AccessLog io.Writer

	// TraceRing bounds the /debugz/requests ring (default 128 entries).
	TraceRing int

	// Logf receives operational log lines (default: stderr).
	Logf func(format string, args ...any)

	// now is the test clock hook (default time.Now).
	now func() time.Time
	// holdJob and filed are test hooks too. holdJob, when set, runs inside
	// each dispatched job's run span once its evaluation returns; filed
	// sees each request record as the ring files it.
	holdJob func()
	filed   func(requestRecord)
}

// server lifecycle states.
const (
	stateServing int32 = iota
	stateDraining
	stateStopped
)

// Server is the evaluation service. Construct with New; it is an
// http.Handler, so it can sit behind httptest or a real listener
// (ListenAndServe).
type Server struct {
	cfg   Config
	sess  *core.Session
	queue *exec.FairQueue
	mux   *http.ServeMux
	adm   *admission

	state atomic.Int32

	// admitMu closes the admission race with drain: handlers hold it shared
	// across {draining check → inflight.Add}, Shutdown holds it exclusively
	// while flipping to draining. Any request is therefore either fully
	// registered before the drain's inflight.Wait, or sees draining and is
	// refused — never half-admitted.
	admitMu sync.RWMutex

	// hardCtx is canceled when the drain budget expires: every request
	// context is derived to die with it, so stragglers are cut loose.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// dispatchCtx stops the dispatcher fleet.
	dispatchCtx    context.Context
	dispatchCancel context.CancelFunc
	dispatchers    sync.WaitGroup

	// inflight tracks requests being handled (queued or executing), the
	// population drain waits for.
	inflight sync.WaitGroup

	busy     atomic.Int64 // dispatcher slots currently executing
	requests atomic.Int64 // total requests ever admitted to a handler
	streams  atomic.Int64 // committed NDJSON streams currently open (sweep + tune)
	tunes    atomic.Int64 // /v1/tune searches currently admitted

	// Observability (observe.go): the collector bundle, the trace ring,
	// the request-ID sequence, and the access-log write lock.
	met      *serverMetrics
	ring     *traceRing
	reqSeq   atomic.Int64
	accessMu sync.Mutex

	// serviceEWMA is an exponentially-weighted moving average of job service
	// time in nanoseconds, feeding the Retry-After estimate.
	serviceEWMA atomic.Int64

	start    time.Time
	shutOnce sync.Once
	shutErr  error
}

// New builds a Server over cfg.Session and starts its dispatcher fleet.
func New(cfg Config) (*Server, error) {
	if cfg.Session == nil {
		return nil, errors.New("serve: Config.Session is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ShedWatermark <= 0 {
		cfg.ShedWatermark = max(1, cfg.QueueDepth*3/4)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = cfg.Session.Workers()
	}
	if cfg.TenantRate <= 0 {
		cfg.TenantRate = 10
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 20
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 60 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 10 * time.Minute
	}
	if cfg.DrainBudget <= 0 {
		cfg.DrainBudget = 15 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.SlowRequest == 0 {
		cfg.SlowRequest = 10 * time.Second
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 128
	}
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
		}
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:   cfg,
		sess:  cfg.Session,
		queue: exec.NewFairQueue(cfg.QueueDepth),
		adm:   newAdmission(cfg.TenantRate, cfg.TenantBurst, cfg.now),
		start: cfg.now(),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.dispatchCtx, s.dispatchCancel = context.WithCancel(context.Background())
	s.ring = newTraceRing(cfg.TraceRing)
	s.met = s.registerMetrics(cfg.Metrics)
	// One registry serves the whole process: the session forwards it to
	// the tuner and the DSE driver, so their series land in /metricsz too.
	cfg.Session.UseMetrics(cfg.Metrics)
	s.mux = s.routes()
	for i := 0; i < cfg.Concurrency; i++ {
		s.dispatchers.Add(1)
		go s.dispatch()
	}
	return s, nil
}

// ServeHTTP implements http.Handler: the instrumentation middleware
// (request-ID, span tree, route/status metrics, access log) around the
// endpoint mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.instrument(w, r)
}

// dispatch is one dispatcher slot: it pulls jobs off the fair queue and
// executes them with panic isolation until the queue closes.
func (s *Server) dispatch() {
	defer s.dispatchers.Done()
	for {
		item, err := s.queue.Pop(s.dispatchCtx)
		if err != nil {
			return
		}
		j := item.(*job)
		if j.tenant != "" && !j.enq.IsZero() {
			s.met.queueWait.With(j.tenant).Observe(s.cfg.now().Sub(j.enq).Seconds())
		}
		if j.ctx.Err() != nil {
			// The requester's deadline expired (or the client left) while the
			// job sat queued: don't burn a slot on an answer nobody wants.
			j.finish(nil, j.ctx.Err())
			continue
		}
		s.busy.Add(1)
		t0 := s.cfg.now()
		j.queue.End()
		run := j.run
		if hold := s.cfg.holdJob; hold != nil {
			run = func(ctx context.Context) (any, error) {
				defer hold()
				return j.run(ctx)
			}
		}
		v, err := runIsolated(j.ctx, run)
		d := s.cfg.now().Sub(t0)
		s.observeService(d)
		if j.tenant != "" {
			s.met.serviceTime.With(j.tenant).Observe(d.Seconds())
		}
		s.busy.Add(-1)
		j.finish(v, err)
	}
}

// runIsolated executes one request body as the request's run span, with
// panic isolation: a panic is recovered into a typed *exec.PanicError — the
// same contract the batch pool gives jobs — so one poisoned request answers
// 500 while the process and every other request keep going. Everything the
// body records (evaluations, compiles, a sweep's parallel jobs) nests under
// the run span.
func runIsolated(ctx context.Context, fn func(context.Context) (any, error)) (v any, err error) {
	ctx, span := metrics.Start(ctx, "run")
	defer func() {
		if r := recover(); r != nil {
			err = &exec.PanicError{Index: -1, Value: r, Stack: captureStack()}
		}
		span.EndWith("", nil, err)
	}()
	return fn(ctx)
}

// captureStack is debug.Stack without the import knot in tests.
func captureStack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// observeService folds one job's service time into the EWMA (α = ¼).
func (s *Server) observeService(d time.Duration) {
	for {
		old := s.serviceEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/4
		}
		if s.serviceEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// estimatedWait is the Retry-After hint: queued work divided by slot
// throughput, floored at one second.
func (s *Server) estimatedWait() time.Duration {
	ewma := time.Duration(s.serviceEWMA.Load())
	if ewma <= 0 {
		ewma = time.Second
	}
	depth := s.queue.Len() + int(s.busy.Load())
	w := time.Duration(depth/max(1, s.cfg.Concurrency)+1) * ewma
	if w < time.Second {
		w = time.Second
	}
	return w
}

// draining reports whether the server has left the serving state.
func (s *Server) draining() bool { return s.state.Load() != stateServing }

// Shutdown drains the server: stop admitting (readyz and every /v1 endpoint
// answer 503), give in-flight requests the drain budget to finish, then
// hard-cancel the rest, stop the dispatcher fleet, and close the session —
// which flushes the persistent cache tier so every completed design point
// survives the process. Idempotent; safe to call from a signal handler
// path. The HTTP listener, if any, is the caller's to close (ListenAndServe
// does both in order).
func (s *Server) Shutdown() error {
	s.shutOnce.Do(func() {
		s.admitMu.Lock()
		s.state.Store(stateDraining)
		s.admitMu.Unlock()
		s.cfg.Logf("draining: admission stopped, waiting up to %s for in-flight requests", s.cfg.DrainBudget)

		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		var cut bool
		select {
		case <-done:
		case <-time.After(s.cfg.DrainBudget):
			cut = true
			s.hardCancel() // cut stragglers loose; their handlers answer 504/503
			<-done
		}

		// No requests remain: close the queue (it is empty — every queued job
		// belonged to an in-flight handler), stop the dispatchers, and make
		// the cache tier durable.
		s.queue.Close()
		s.dispatchCancel()
		s.dispatchers.Wait()
		s.shutErr = s.sess.Close()
		s.state.Store(stateStopped)
		if cut {
			s.cfg.Logf("drained (budget expired; stragglers were canceled)")
		} else {
			s.cfg.Logf("drained cleanly")
		}
	})
	return s.shutErr
}

// ListenAndServe serves on addr until ctx is canceled (SIGTERM in the CLI),
// then drains per Shutdown and closes the listener. The returned error is
// nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.cfg.Logf("listening on http://%s", ln.Addr())
	httpSrv := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		s.Shutdown()
		return err
	case <-ctx.Done():
	}
	drainErr := s.Shutdown()
	// In-flight handlers have returned; this only closes the listener and
	// idle connections.
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	return drainErr
}
