package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"plasticine/internal/exec"
	"plasticine/internal/metrics"
)

// Sweeps are long: minutes of design-point evaluation behind one request.
// /v1/sweep therefore streams NDJSON — one JSON object per line — instead
// of a single document, with heartbeats between events so a client can tell
// "the sweep is grinding" from "the server is gone". The line protocol:
//
//	{"event":"queued", "kind":..., "queue_depth":N}
//	{"event":"started"}                         // a dispatcher slot picked it up
//	{"event":"heartbeat", "elapsed_sec":..., "points_evaluated":N, ...}
//	{"event":"result", "kind":..., "data":...}  // terminal on success
//	{"event":"error", "error":..., "status":N}  // terminal on failure
//	{"event":"done"}                            // always the last line
//
// Because the 200 header is committed before the sweep finishes, failures
// after admission arrive as an "error" event, not an HTTP status.

// sweepEvent is one NDJSON line.
type sweepEvent struct {
	Event string `json:"event"`
	Kind  string `json:"kind,omitempty"`
	Error string `json:"error,omitempty"`
	// Status carries the HTTP status the error would have had, had it
	// happened before the stream was committed.
	Status int `json:"status,omitempty"`

	QueueDepth      int     `json:"queue_depth,omitempty"`
	ElapsedSec      float64 `json:"elapsed_sec,omitempty"`
	PointsEvaluated int64   `json:"points_evaluated,omitempty"`
	CacheHits       int64   `json:"cache_hits,omitempty"`

	Data any `json:"data,omitempty"`
}

// sweepBody resolves the kind parameter to the session call that computes
// it. Every kind rides the session's pool and design-point cache, so
// identical sweeps from different tenants coalesce.
func (s *Server) sweepBody(r *http.Request) (kind string, run func(context.Context) (any, error), err error) {
	q := r.URL.Query()
	kind = q.Get("kind")
	switch kind {
	case "fig7":
		panel := q.Get("panel")
		if panel == "" {
			panel = "a"
		}
		return kind, func(ctx context.Context) (any, error) { return s.sess.Figure7(ctx, panel) }, nil
	case "table3":
		return kind, func(ctx context.Context) (any, error) { return s.sess.Table3(ctx) }, nil
	case "table6":
		return kind, func(ctx context.Context) (any, error) { return s.sess.Table6(ctx) }, nil
	case "table7":
		return kind, func(ctx context.Context) (any, error) { return s.sess.Table7(ctx) }, nil
	case "ratios":
		return kind, func(ctx context.Context) (any, error) { return s.sess.RatioStudy(ctx) }, nil
	case "bench":
		var names []string
		if raw := q.Get("bench"); raw != "" {
			names = strings.Split(raw, ",")
		}
		return kind, func(ctx context.Context) (any, error) { return s.sess.Bench(ctx, names) }, nil
	case "":
		return "", nil, errors.New("missing kind parameter: fig7, table3, table6, table7, ratios or bench")
	default:
		return "", nil, fmt.Errorf("unknown sweep kind %q: want fig7, table3, table6, table7, ratios or bench", kind)
	}
}

// handleSweep admits a sweep as a heavy request, then streams its progress.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	kind, run, err := s.sweepBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	s.streamRequest(w, r, kind, run, nil)
}

// streamRequest admits run as a heavy streamed request and relays its life
// cycle as NDJSON events. updates (nil ok) feeds additional in-band events
// produced by the running job — e.g. the tuner's per-generation lines — into
// the stream; it must be closed by run before returning, and sends into it
// must never block (the stream drains it at its own pace).
func (s *Server) streamRequest(w http.ResponseWriter, r *http.Request, kind string, run func(context.Context) (any, error), updates <-chan sweepEvent) {
	tenant := tenantOf(r)
	_, admission := metrics.Start(r.Context(), "admission")
	if !s.enterRequest(w, tenant, 1) {
		admission.End()
		return
	}
	defer s.inflight.Done()
	s.streams.Add(1)
	defer s.streams.Add(-1)
	if s.queue.Len() >= s.cfg.ShedWatermark {
		admission.End()
		s.shedRequest(tenant)
		writeError(w, http.StatusTooManyRequests,
			"queue past its shed watermark; retry later", s.estimatedWait())
		return
	}

	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		admission.End()
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	defer cancel()
	admission.End()

	started := make(chan struct{})
	j := &job{ctx: ctx, tenant: tenant, enq: s.cfg.now(), done: make(chan struct{})}
	j.run = func(ctx context.Context) (any, error) {
		close(started)
		return run(ctx)
	}
	_, j.queue = metrics.Start(ctx, "queue")
	if err := s.queue.Push(tenant, j); err != nil {
		if errors.Is(err, exec.ErrQueueFull) {
			s.shedRequest(tenant)
			writeError(w, http.StatusTooManyRequests, "queue full; retry later", s.estimatedWait())
		} else {
			writeError(w, http.StatusServiceUnavailable, "server is draining", time.Second)
		}
		return
	}

	// Commit the stream. From here, failures are in-band events.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(ev sweepEvent) {
		data, err := safeMarshal(ev, false)
		if err != nil {
			// Even the sanitized form failed; a committed stream must never
			// silently drop a line, so degrade to an in-band error event.
			data, _ = json.Marshal(sweepEvent{Event: "error", Kind: ev.Kind,
				Error:  fmt.Sprintf("%s event is not JSON-encodable: %v", ev.Event, err),
				Status: http.StatusInternalServerError})
		}
		w.Write(data)
		w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}

	t0 := s.cfg.now()
	base := s.sess.CacheStats()
	emit(sweepEvent{Event: "queued", Kind: kind, QueueDepth: s.queue.Len()})
	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	sentStarted := false
	finish := func(err error) {
		if err != nil {
			var pe *exec.PanicError
			msg := err.Error()
			if errors.As(err, &pe) {
				s.met.panics.Inc()
				s.cfg.Logf("sweep panic (isolated): %v", pe.Value)
				msg = "internal: sweep evaluation panicked"
			}
			emit(sweepEvent{Event: "error", Kind: kind, Error: msg, Status: statusOf(err)})
		}
		emit(sweepEvent{Event: "done", Kind: kind, ElapsedSec: s.cfg.now().Sub(t0).Seconds()})
	}
	// drainUpdates forwards whatever the job has already published without
	// blocking. Once run returns it has closed updates, so the j.done path
	// sees every event; a nil channel (plain sweeps) never fires.
	drainUpdates := func() {
		for updates != nil {
			select {
			case ev, ok := <-updates:
				if !ok {
					updates = nil
					return
				}
				emit(ev)
			default:
				return
			}
		}
	}
	for {
		select {
		case <-started:
			started = nil // fires once
			sentStarted = true
			emit(sweepEvent{Event: "started", Kind: kind})
		case ev, ok := <-updates:
			if !ok {
				updates = nil // closed; stop selecting on it
				continue
			}
			emit(ev)
		case <-heartbeat.C:
			cur := s.sess.CacheStats()
			ev := sweepEvent{
				Event:           "heartbeat",
				Kind:            kind,
				ElapsedSec:      s.cfg.now().Sub(t0).Seconds(),
				QueueDepth:      s.queue.Len(),
				PointsEvaluated: cur.Misses - base.Misses,
				CacheHits:       cur.Hits - base.Hits,
			}
			emit(ev)
		case <-j.done:
			drainUpdates()
			if !sentStarted && j.err == nil {
				emit(sweepEvent{Event: "started", Kind: kind})
			}
			if j.err != nil {
				s.adm.count(tenant, func(c *TenantCounters) { c.Failed++ })
				finish(j.err)
			} else {
				s.adm.count(tenant, func(c *TenantCounters) { c.Completed++ })
				emit(sweepEvent{Event: "result", Kind: kind, Data: j.val,
					ElapsedSec: s.cfg.now().Sub(t0).Seconds()})
				finish(nil)
			}
			return
		case <-ctx.Done():
			s.adm.count(tenant, func(c *TenantCounters) { c.Failed++ })
			finish(fmt.Errorf("%s: %w", requestDeathMessage(ctx), ctx.Err()))
			return
		}
	}
}
