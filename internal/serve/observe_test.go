package serve

// Tests for the observability layer: /metricsz exposition coverage across
// every subsystem, the /debugz/requests trace ring with phase spans, the
// request-ID middleware, pprof gating, the JSON access log, and the
// unified Retry-After helper.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"plasticine/internal/core"
	"plasticine/internal/metrics"
)

// scrape fetches /metricsz and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, body := get(t, base+"/metricsz")
	if resp.StatusCode != 200 {
		t.Fatalf("metricsz = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("metricsz Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	return string(body)
}

// sampleValue finds the sample whose line starts with prefix (name plus any
// label matcher) and returns its value.
func sampleValue(t *testing.T, expo, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no sample with prefix %q in exposition", prefix)
	return 0
}

func TestMetricszCoversEverySubsystem(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// One compute, one memory-tier hit, so cache counters move both ways.
	for i := 0; i < 2; i++ {
		if resp, body := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=alice"); resp.StatusCode != 200 {
			t.Fatalf("run %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	expo := scrape(t, ts.URL)

	// Serve layer.
	if n := sampleValue(t, expo, `plasticine_http_requests_total{route="/v1/run",status="200"}`); n != 2 {
		t.Fatalf("http_requests_total for /v1/run 200 = %v, want 2", n)
	}
	if n := sampleValue(t, expo, `plasticine_http_request_duration_seconds_count{route="/v1/run"}`); n != 2 {
		t.Fatalf("duration histogram count = %v, want 2", n)
	}
	if n := sampleValue(t, expo, `plasticine_queue_wait_seconds_count{tenant="alice"}`); n != 2 {
		t.Fatalf("queue_wait count = %v, want 2", n)
	}
	if n := sampleValue(t, expo, `plasticine_service_time_seconds_count{tenant="alice"}`); n != 2 {
		t.Fatalf("service_time count = %v, want 2", n)
	}
	if v := sampleValue(t, expo, `plasticine_dispatcher_slots`); v != 2 {
		t.Fatalf("dispatcher_slots = %v, want 2", v)
	}
	if v := sampleValue(t, expo, `plasticine_build_info{`); v != 1 {
		t.Fatalf("build_info = %v, want 1", v)
	}

	// Exec pool and both cache tiers.
	if n := sampleValue(t, expo, `plasticine_cache_hits_total{tier="memory"}`); n < 1 {
		t.Fatalf("memory cache hits = %v, want >= 1 after repeated run", n)
	}
	sampleValue(t, expo, `plasticine_cache_hits_total{tier="disk"}`)
	if n := sampleValue(t, expo, `plasticine_cache_misses_total{tier="memory"}`); n < 1 {
		t.Fatalf("memory cache misses = %v, want >= 1 for the first compute", n)
	}
	sampleValue(t, expo, `plasticine_pool_running`)
	sampleValue(t, expo, `plasticine_job_retries_total`)
	sampleValue(t, expo, `plasticine_jobs_failed_total{class="permanent"}`)
	sampleValue(t, expo, `plasticine_jobs_failed_total{class="transient"}`)

	// Tune and DSE families are pre-registered: visible at zero before any
	// search runs, so dashboards never see a family appear mid-flight.
	sampleValue(t, expo, `plasticine_tune_generation_seconds_count`)
	sampleValue(t, expo, `plasticine_tune_sampled_total`)
	sampleValue(t, expo, `plasticine_dse_points_total`)
	sampleValue(t, expo, `plasticine_dse_infeasible_total`)

	// The exposition itself must pass its own linter rules: every sample
	// belongs to a family announced by HELP/TYPE, no duplicate series.
	seen := map[string]bool{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(expo, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key := strings.Join(fields[:len(fields)-1], " ")
		if seen[key] {
			t.Fatalf("duplicate series in exposition: %s", key)
		}
		seen[key] = true
	}
	if len(typed) < 10 {
		t.Fatalf("only %d TYPE lines; exposition looks truncated", len(typed))
	}
}

func TestStatszBuildAndScrapeCount(t *testing.T) {
	_, ts := newTestServer(t, nil)
	scrape(t, ts.URL)
	_, body := get(t, ts.URL+"/statsz")
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz: %v\n%s", err, body)
	}
	if st.Build.GoVersion == "" {
		t.Fatalf("statsz build info missing go version: %+v", st.Build)
	}
	if st.MetricsScrapes != 1 {
		t.Fatalf("metrics_scrapes = %d, want 1 after one scrape", st.MetricsScrapes)
	}
}

func TestQuotaAndShedCountersMove(t *testing.T) {
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.TenantRate = 0.001
		cfg.TenantBurst = 1
		cfg.QueueDepth = 2
	})
	get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=greedy") // spends the burst
	resp, _ := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=greedy")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota = %d, want 429", resp.StatusCode)
	}
	expo := scrape(t, ts.URL)
	if n := sampleValue(t, expo, `plasticine_quota_denied_total{tenant="greedy"}`); n < 1 {
		t.Fatalf("quota_denied_total = %v, want >= 1", n)
	}
	if n := sampleValue(t, expo, `plasticine_http_requests_total{route="/v1/run",status="429"}`); n < 1 {
		t.Fatalf("429 not counted by route: %v", n)
	}

	// Wedge the dispatchers and overflow the queue so the shed counter moves.
	release := blockDispatchers(t, s, 2)
	defer release()
	resp, _ = get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=burst")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429", resp.StatusCode)
	}
	expo = scrape(t, ts.URL)
	if n := sampleValue(t, expo, `plasticine_requests_shed_total{tenant="burst"}`); n < 1 {
		t.Fatalf("requests_shed_total = %v, want >= 1", n)
	}
}

func TestPanicCounterMoves(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) { cfg.FaultInjection = true })
	resp, _ := get(t, ts.URL+"/debugz/panic")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic probe = %d, want 500", resp.StatusCode)
	}
	expo := scrape(t, ts.URL)
	if n := sampleValue(t, expo, `plasticine_request_panics_total`); n != 1 {
		t.Fatalf("request_panics_total = %v, want 1", n)
	}
}

// ringRecords fetches /debugz/requests, newest first.
func ringRecords(t *testing.T, base string) debugRequestsDoc {
	t.Helper()
	_, body := get(t, base+"/debugz/requests")
	var doc debugRequestsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("debugz/requests: %v\n%s", err, body)
	}
	return doc
}

// newestRecord returns the newest ring record for route.
func newestRecord(t *testing.T, base, route string) requestRecord {
	t.Helper()
	doc := ringRecords(t, base)
	for _, r := range doc.Requests {
		if r.Route == route {
			return r
		}
	}
	t.Fatalf("no %s record in ring: %+v", route, doc.Requests)
	return requestRecord{}
}

// findSpan returns the first span named name, depth first through spans
// and their descendants.
func findSpan(spans []*metrics.Span, name string) *metrics.Span {
	for _, sp := range spans {
		var hit *metrics.Span
		sp.Walk(func(s *metrics.Span, _ int) {
			if hit == nil && s.Name == name {
				hit = s
			}
		})
		if hit != nil {
			return hit
		}
	}
	return nil
}

// countSpans counts spans and their descendants.
func countSpans(spans []*metrics.Span) int {
	n := 0
	for _, sp := range spans {
		sp.Walk(func(*metrics.Span, int) { n++ })
	}
	return n
}

// checkTopLevel fails unless rec's phases are sequential top-level phases
// drawn from admission, queue, run and marshal, summing to no more than
// the request's wall time.
func checkTopLevel(t *testing.T, rec requestRecord) {
	t.Helper()
	var end float64
	for _, ph := range rec.Phases {
		switch ph.Name {
		case "admission", "queue", "run", "marshal":
		default:
			t.Errorf("%s: top-level phase %q, want only admission, queue, run and marshal", rec.Route, ph.Name)
		}
		if ph.StartUS < end {
			t.Errorf("%s: phase %s starts at %vµs, before its predecessor ends at %vµs", rec.Route, ph.Name, ph.StartUS, end)
		}
		end = ph.StartUS + ph.DurUS
	}
	if rec.PhaseUS > rec.WallUS {
		t.Errorf("%s: phase_us %d exceeds wall_us %d", rec.Route, rec.PhaseUS, rec.WallUS)
	}
}

// checkEvaluation fails unless parent's children are one evaluation's
// phases, exactly those named, each once, with the sim span holding the
// graph build and the engine.
func checkEvaluation(t *testing.T, parent *metrics.Span, phases ...string) {
	t.Helper()
	if parent == nil {
		t.Fatal("no span holds the evaluation")
	}
	var names []string
	for _, sp := range parent.Children {
		names = append(names, sp.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(phases, ","); got != want {
		t.Fatalf("%s holds %s, want %s", parent.Name, got, want)
	}
	sim := findSpan(parent.Children, "sim")
	if sim == nil || len(sim.Children) < 2 || sim.Children[0].Name != "graph" || sim.Children[1].Name != "engine" {
		t.Fatalf("sim span holds %+v, want graph then engine", sim)
	}
}

func TestDebugRequestsRingRecordsPhases(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.SlowRequest = time.Nanosecond // everything is "slow"
	})
	if resp, body := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=alice"); resp.StatusCode != 200 {
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	doc := ringRecords(t, ts.URL)
	if doc.Capacity != 128 {
		t.Fatalf("ring capacity = %d, want default 128", doc.Capacity)
	}
	rec := newestRecord(t, ts.URL, "/v1/run")
	if rec.ID == "" || rec.Tenant != "alice" || rec.Status != 200 {
		t.Fatalf("record = %+v", rec)
	}
	if !rec.Slow {
		t.Fatal("1ns threshold did not mark the request slow")
	}
	names := map[string]bool{}
	for _, sp := range rec.Phases {
		names[sp.Name] = true
		sp.Walk(func(s *metrics.Span, _ int) {
			if s.DurUS < 0 || s.StartUS < 0 {
				t.Fatalf("negative span: %+v", s)
			}
		})
	}
	for _, want := range []string{"admission", "queue", "run", "marshal"} {
		if !names[want] {
			t.Fatalf("missing %q phase; got %+v", want, rec.Phases)
		}
	}
	checkTopLevel(t, rec)
	run := findSpan(rec.Phases, "run")
	checkEvaluation(t, run, "compile", "build", "interpret", "check", "sim")
	if rec.PhaseUS <= 0 || rec.WallUS <= 0 {
		t.Fatalf("empty timings: %+v", rec)
	}
	// The spans cover the request's life; the untraced remainder (mux,
	// header writes, ring bookkeeping) must stay a small fraction of wall.
	// The acceptance demo holds this to 5%; under -race scheduling jitter
	// we allow more slack, but half the wall going missing means a phase
	// boundary is wrong.
	if rec.PhaseUS < rec.WallUS/2 {
		t.Fatalf("phases cover %dus of %dus wall; tracing is losing time", rec.PhaseUS, rec.WallUS)
	}
	// Cached rerun records a "cache" span under run instead of compile/sim.
	get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=alice")
	rec = newestRecord(t, ts.URL, "/v1/run")
	run = findSpan(rec.Phases, "run")
	if run == nil || findSpan(run.Children, "cache") == nil || findSpan(run.Children, "compile") != nil {
		t.Fatalf("warm rerun records no lone cache span under run: %+v", rec.Phases)
	}
}

// TestProfileReusesFunctionalResult: the session's first profile of a
// benchmark runs its functional phase under the profile span; a later one
// records a memo span in its place and still times the benchmark under
// sim.
func TestProfileReusesFunctionalResult(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, phases := range [][]string{{"compile", "build", "interpret", "check", "sim"}, {"compile", "memo", "sim"}} {
		if resp, body := get(t, ts.URL+"/v1/profile?bench=SMDV"); resp.StatusCode != 200 {
			t.Fatalf("profile = %d: %s", resp.StatusCode, body)
		}
		rec := newestRecord(t, ts.URL, "/v1/profile")
		checkTopLevel(t, rec)
		checkEvaluation(t, findSpan(rec.Phases, "profile"), phases...)
	}
}

// TestCompileAndExplainRecordCompileSpan: /v1/compile and /v1/explain
// record the compile itself — a compile span under run whose children are
// the eight passes — so their phases cover the request's wall time.
func TestCompileAndExplainRecordCompileSpan(t *testing.T) {
	_, ts := newTestServer(t, nil)
	passes := "validate,allocate,partition,fit-check,netlist,place,route,timing"
	for _, route := range []string{"/v1/compile", "/v1/explain"} {
		if resp, body := get(t, ts.URL+route+"?bench=GEMM"); resp.StatusCode != 200 {
			t.Fatalf("%s = %d: %s", route, resp.StatusCode, body)
		}
		rec := newestRecord(t, ts.URL, route)
		checkTopLevel(t, rec)
		run := findSpan(rec.Phases, "run")
		if run == nil {
			t.Fatalf("%s: no run phase: %+v", route, rec.Phases)
		}
		comp := findSpan(run.Children, "compile")
		if comp == nil {
			t.Fatalf("%s: no compile span under run: %+v", route, run.Children)
		}
		var names []string
		for _, p := range comp.Children {
			names = append(names, p.Name)
			if p.StartUS < comp.StartUS || p.StartUS+p.DurUS > comp.StartUS+comp.DurUS {
				t.Errorf("%s: pass %s lies outside compile", route, p.Name)
			}
		}
		if got := strings.Join(names, ","); got != passes {
			t.Errorf("%s: compile children = %s, want %s", route, got, passes)
		}
		if rec.PhaseUS < rec.WallUS/2 {
			t.Errorf("%s: phases cover %dus of %dus wall", route, rec.PhaseUS, rec.WallUS)
		}
	}
}

// sweep runs one /v1/sweep to its done event.
func sweep(t *testing.T, url string) {
	t.Helper()
	resp, body := get(t, url)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"event":"result"`) {
		t.Fatalf("sweep = %d: %s", resp.StatusCode, body)
	}
}

// TestSweepPhasesNeverExceedWall: a sweep's parallel jobs nest under its
// run phase instead of summing flat at the top level, so phase_us stays
// within wall_us on a 2-worker session.
func TestSweepPhasesNeverExceedWall(t *testing.T) {
	_, ts := newTestServer(t, nil)
	sweep(t, ts.URL+"/v1/sweep?kind=bench&bench=InnerProduct,TPCHQ6,LogReg,SGD&timeout=5m")
	rec := newestRecord(t, ts.URL, "/v1/sweep")
	checkTopLevel(t, rec)
	run := findSpan(rec.Phases, "run")
	if run == nil {
		t.Fatalf("no run phase: %+v", rec.Phases)
	}
	count := map[string]int{}
	for _, sp := range run.Children {
		count[sp.Name]++
	}
	for _, name := range []string{"build", "compile", "interpret", "check", "sim"} {
		if count[name] != 4 {
			t.Errorf("run holds %d %s spans, want one per benchmark (4): %v", count[name], name, count)
		}
	}
	if len(count) != 5 {
		t.Errorf("run holds spans other than the five phases: %v", count)
	}
	for _, sp := range run.Children {
		if sp.Name == "sim" && (len(sp.Children) != 2 || sp.Children[0].Name != "graph" || sp.Children[1].Name != "engine") {
			t.Errorf("a sim span holds %+v, want graph then engine", sp.Children)
		}
	}
	if rec.Dropped != 0 {
		t.Errorf("a 4-benchmark sweep dropped %d spans", rec.Dropped)
	}
}

// TestSweepTreeCapReportsDropped: a sweep whose tree passes the cap keeps
// at most metrics.MaxSpans spans, root included, and counts the rest.
func TestSweepTreeCapReportsDropped(t *testing.T) {
	_, ts := newTestServer(t, nil)
	benches := "InnerProduct,LogReg,SGD,CNN,Kmeans,SMDV,BFS"
	sweep(t, ts.URL+"/v1/sweep?kind=bench&bench="+benches+"&timeout=5m")
	rec := newestRecord(t, ts.URL, "/v1/sweep")
	checkTopLevel(t, rec)
	kept := countSpans(rec.Phases)
	if kept+1 > metrics.MaxSpans {
		t.Errorf("record keeps %d spans plus its root, over the cap %d", kept, metrics.MaxSpans)
	}
	// admission, queue and run, plus compile with eight passes, build,
	// interpret, check, and sim with the graph build and the engine for
	// each of the seven benchmarks.
	if want := 3 + 7*15; kept+rec.Dropped != want {
		t.Errorf("kept %d + dropped %d spans, want %d in all", kept, rec.Dropped, want)
	}
	if rec.Dropped == 0 {
		t.Error("an over-cap tree reports nothing dropped")
	}
}

// TestTimedOutRequestRecordIsSnapshot: a request that answers 504 while its
// job keeps running files one record, which the straggler cannot change.
// Run under -race, this also checks the job records into the live tree
// while /debugz/requests reads the record. The job holds its run span open
// until the 504 record is filed, and only then evaluates: the interpreter
// and the engine poll the same deadline, so a job that stopped on it first
// would end the span before the record was taken, and one that finished
// inside it would memoize the point the last request must compute.
func TestTimedOutRequestRecordIsSnapshot(t *testing.T) {
	timedOut := make(chan struct{})
	var once sync.Once
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.filed = func(rec requestRecord) {
			if rec.Status == http.StatusGatewayTimeout {
				once.Do(func() { close(timedOut) })
			}
		}
		cfg.holdJob = func() {
			select {
			case <-timedOut:
			case <-time.After(time.Minute):
			}
		}
	})
	resp, body := get(t, ts.URL+"/v1/run?bench=GEMM&timeout=50ms")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Skipf("50ms GEMM run = %d, not a timeout on this host: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Request-Id")
	record := func() []byte {
		for _, r := range ringRecords(t, ts.URL).Requests {
			if r.ID == id {
				data, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
		}
		t.Fatalf("no record for request %s", id)
		return nil
	}
	first := record()
	for deadline := time.Now().Add(time.Minute); ; {
		if got := record(); !bytes.Equal(got, first) {
			t.Fatalf("record changed while its job ran:\n%s\n%s", first, got)
		}
		if s.busy.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the timed-out job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	var rec requestRecord
	if err := json.Unmarshal(first, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != http.StatusGatewayTimeout {
		t.Errorf("record status = %d, want 504", rec.Status)
	}
	checkTopLevel(t, rec)
	if findSpan(rec.Phases, "run") != nil {
		t.Errorf("the record holds the run phase, which was still running: %+v", rec.Phases)
	}
	// The same point under a deadline it can meet: the evaluation's spans
	// nest under run.
	if resp, body := get(t, ts.URL+"/v1/run?bench=GEMM&timeout=2m"); resp.StatusCode != 200 {
		t.Fatalf("2m run = %d: %s", resp.StatusCode, body)
	}
	rec = newestRecord(t, ts.URL, "/v1/run")
	checkTopLevel(t, rec)
	checkEvaluation(t, findSpan(rec.Phases, "run"), "compile", "build", "interpret", "check", "sim")
}

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/explain?bench=InnerProduct", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-42" {
		t.Fatalf("X-Request-Id = %q, want echo of caller's id", got)
	}
	resp2, _ := get(t, ts.URL+"/v1/explain?bench=InnerProduct")
	if got := resp2.Header.Get("X-Request-Id"); got == "" {
		t.Fatal("no generated X-Request-Id on response")
	}
}

func TestPprofGatedByDebugFlag(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if resp, _ := get(t, ts.URL+"/debugz/pprof/heap"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -debug = %d, want 404", resp.StatusCode)
	}
	_, ts2 := newTestServer(t, func(cfg *Config) { cfg.Debug = true })
	if resp, _ := get(t, ts2.URL+"/debugz/pprof/heap"); resp.StatusCode != 200 {
		t.Fatalf("pprof heap with -debug = %d, want 200", resp.StatusCode)
	}
	if resp, _ := get(t, ts2.URL+"/debugz/pprof/"); resp.StatusCode != 200 {
		t.Fatalf("pprof index with -debug = %d, want 200", resp.StatusCode)
	}
}

// syncBuffer is a goroutine-safe io.Writer; the access log is written from
// handler goroutines while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogEmitsJSONLines(t *testing.T) {
	var logbuf syncBuffer
	_, ts := newTestServer(t, func(cfg *Config) { cfg.AccessLog = &logbuf })
	if resp, body := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=alice"); resp.StatusCode != 200 {
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	var line string
	for {
		if s := strings.TrimSpace(logbuf.String()); s != "" {
			line = strings.Split(s, "\n")[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no access log line after a traced request")
		}
		time.Sleep(time.Millisecond)
	}
	var rec requestRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, line)
	}
	if rec.Route != "/v1/run" || rec.Status != 200 || rec.ID == "" || rec.WallUS <= 0 {
		t.Fatalf("access log record = %+v", rec)
	}
}

// Retry-After unification: both the quota path (writeError) and the
// draining readyz path go through setRetryAfter, so the header is always a
// positive integer number of seconds.
func TestSetRetryAfterRounding(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{10 * time.Millisecond, "1"}, // floored at 1s
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"}, // ceiling, not truncation
		{3 * time.Second, "3"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		if sec := setRetryAfter(w, c.d); strconv.Itoa(sec) != c.want {
			t.Fatalf("setRetryAfter(%v) returned %d, want %s", c.d, sec, c.want)
		}
		if got := w.Header().Get("Retry-After"); got != c.want {
			t.Fatalf("setRetryAfter(%v) header = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestReadyzDrainingRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, nil)
	go s.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := get(t, ts.URL+"/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			if got := resp.Header.Get("Retry-After"); got != "1" {
				t.Fatalf("draining readyz Retry-After = %q, want \"1\"", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// The first observation seeds the EWMA outright instead of blending with a
// zero initial value, so the very first Retry-After hint reflects reality
// rather than a quarter of it.
func TestObserveServiceSeedsEWMAFirstObservation(t *testing.T) {
	s, err := New(Config{Session: core.NewSession(core.WithWorkers(2)), Concurrency: 2, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	if w := s.estimatedWait(); w != time.Second {
		t.Fatalf("pre-observation wait = %v, want the 1s floor", w)
	}
	s.observeService(8 * time.Second)
	if got := time.Duration(s.serviceEWMA.Load()); got != 8*time.Second {
		t.Fatalf("first observation EWMA = %v, want 8s (seeded, not blended)", got)
	}
	// Empty queue, no busy slots: depth/slots+1 = 1 multiple of the EWMA.
	if w := s.estimatedWait(); w != 8*time.Second {
		t.Fatalf("wait after seeding = %v, want 8s", w)
	}
	s.observeService(4 * time.Second)
	if got := time.Duration(s.serviceEWMA.Load()); got != 7*time.Second {
		t.Fatalf("second observation EWMA = %v, want 7s (8 + (4-8)/4)", got)
	}
}
