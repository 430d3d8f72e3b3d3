package serve

// White-box tests for the serving layer's robustness spine: admission,
// quotas, shedding (429, never 5xx), deadline propagation (504), panic
// isolation (500 for one request, the process lives), NDJSON sweep
// streaming, and graceful drain with a flushed cache tier.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"plasticine/internal/core"
	"plasticine/internal/exec"
)

// newTestServer builds a Server (and its httptest front) with fast-test
// defaults; the caller owns ts.Close, the server's Shutdown runs in cleanup.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Session:     core.NewSession(core.WithWorkers(2)),
		QueueDepth:  8,
		Concurrency: 2,
		TenantRate:  1000,
		TenantBurst: 1000,
		Heartbeat:   10 * time.Millisecond,
		DrainBudget: 10 * time.Second,
		Logf:        func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestRunEndpointAndCrossTenantCacheHit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=alice")
	if resp.StatusCode != 200 {
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	var r core.BenchResult
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("run body is not a BenchResult: %v\n%s", err, body)
	}
	if r.Name != "InnerProduct" || r.Cycles <= 0 {
		t.Fatalf("run result = %+v", r)
	}
	// A different tenant asking for the same design point hits the shared
	// cache — the multi-tenant coalescing the service exists for.
	resp2, body2 := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=bob")
	if resp2.StatusCode != 200 {
		t.Fatalf("second tenant run = %d: %s", resp2.StatusCode, body2)
	}
	_, statsBody := get(t, ts.URL+"/statsz")
	var st Stats
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits < 1 {
		t.Fatalf("no cache hit after identical cross-tenant requests: %+v", st.Cache)
	}
	if st.Tenants["alice"].Completed != 1 || st.Tenants["bob"].Completed != 1 {
		t.Fatalf("per-tenant completion counters wrong: %+v", st.Tenants)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL+"/v1/explain?bench=TPCHQ6")
	if resp.StatusCode != 200 {
		t.Fatalf("explain = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"Fits": true`) {
		t.Fatalf("explain body: %s", body)
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL+"/v1/compile?bench=InnerProduct&bitstream=1")
	if resp.StatusCode != 200 {
		t.Fatalf("compile = %d: %s", resp.StatusCode, body)
	}
	var c compileResponse
	if err := json.Unmarshal(body, &c); err != nil {
		t.Fatal(err)
	}
	if c.Bench != "InnerProduct" || c.Summary == "" || len(c.Bitstream) == 0 {
		t.Fatalf("compile response incomplete: bench=%q summary=%d bytes bitstream=%d bytes",
			c.Bench, len(c.Summary), len(c.Bitstream))
	}
}

func TestUnknownBenchmarkIs404(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := get(t, ts.URL+"/v1/run?bench=NoSuchBench")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown benchmark = %d, want 404", resp.StatusCode)
	}
}

func TestBadTimeoutIs400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := get(t, ts.URL+"/v1/run?bench=InnerProduct&timeout=banana")
	if resp.StatusCode != 400 {
		t.Fatalf("bad timeout = %d, want 400", resp.StatusCode)
	}
}

func TestDeadlineExpiryIs504(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL+"/v1/run?bench=GEMM&timeout=1ns")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline = %d, want 504: %s", resp.StatusCode, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("504 body: %s", body)
	}
}

// TestTimedOutRunIsNotMemoized: a request that runs out of its own
// deadline must not poison the design point for the next request, which
// has time to finish.
func TestTimedOutRunIsNotMemoized(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL+"/v1/run?bench=GEMM&timeout=50ms")
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Fatalf("50ms run = %d, want 504 (or 200 on a fast host): %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/v1/run?bench=GEMM&timeout=2m")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("2m run after a timed-out one = %d, want 200: %s", resp.StatusCode, body)
	}
	var r core.BenchResult
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("run body is not a BenchResult: %v\n%s", err, body)
	}
	const gemmCycles = 220925
	if r.Cycles != gemmCycles {
		t.Fatalf("GEMM cycles = %d, want Table 7's %d", r.Cycles, gemmCycles)
	}
}

func TestQuotaDeniedIs429WithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.TenantRate = 0.5
		cfg.TenantBurst = 1
	})
	resp, _ := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=greedy")
	if resp.StatusCode != 200 {
		t.Fatalf("first request = %d, want 200", resp.StatusCode)
	}
	resp2, body := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=greedy")
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request = %d, want 429: %s", resp2.StatusCode, body)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// A different tenant is unaffected: quotas are per tenant.
	resp3, _ := get(t, ts.URL+"/v1/run?bench=InnerProduct&tenant=patient")
	if resp3.StatusCode != 200 {
		t.Fatalf("other tenant = %d, want 200", resp3.StatusCode)
	}
}

// blockDispatchers wedges every dispatcher slot and fills depth queue
// entries with jobs that park until release is closed (or their ctx dies).
func blockDispatchers(t *testing.T, s *Server, depth int) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan struct{})
	park := func(jctx context.Context) (any, error) {
		select {
		case <-ch:
		case <-jctx.Done():
		}
		return nil, nil
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(ch)
			cancel()
		})
	}
	// Register before any Fatal below: a parked dispatcher must always be
	// releasable or Shutdown in the server's cleanup would hang.
	t.Cleanup(release)
	// First occupy every dispatcher slot, waiting for each batch to drain so
	// the pushes never race the Pops past the queue bound...
	for i := 0; i < s.cfg.Concurrency; i++ {
		j := &job{ctx: ctx, run: park, done: make(chan struct{})}
		if err := s.queue.Push("blocker", j); err != nil {
			t.Fatalf("slot blocker %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatchers never picked up the slot blockers")
		}
		time.Sleep(time.Millisecond)
	}
	// ...then fill the queue itself to the requested depth.
	for i := 0; i < depth; i++ {
		j := &job{ctx: ctx, run: park, done: make(chan struct{})}
		if err := s.queue.Push("blocker", j); err != nil {
			t.Fatalf("queue blocker %d: %v", i, err)
		}
	}
	return release
}

func TestHeavySheddingKeepsCheapRequestsAlive(t *testing.T) {
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.QueueDepth = 4
		cfg.ShedWatermark = 2
		cfg.Concurrency = 1
	})
	release := blockDispatchers(t, s, 2) // queue depth 2 == watermark
	defer release()

	// Heavy request: shed with 429 + Retry-After.
	resp, body := get(t, ts.URL+"/v1/sweep?kind=fig7&panel=f")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sweep past watermark = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 without a Retry-After header")
	}
	// Cheap request: still served — the degradation contract.
	resp2, body2 := get(t, ts.URL+"/v1/explain?bench=TPCHQ6")
	if resp2.StatusCode != 200 {
		t.Fatalf("explain while shedding = %d, want 200: %s", resp2.StatusCode, body2)
	}
	var st Stats
	_, statsBody := get(t, ts.URL+"/statsz")
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Tenants["anon"].Shed == 0 {
		t.Fatalf("shed counter never moved: %+v", st.Tenants)
	}
}

func TestQueueFullShedsNormalRequests(t *testing.T) {
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.QueueDepth = 2
		cfg.ShedWatermark = 2
		cfg.Concurrency = 1
	})
	release := blockDispatchers(t, s, 2) // queue at its bound
	defer release()
	resp, body := get(t, ts.URL+"/v1/run?bench=InnerProduct")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("run into a full queue = %d, want 429: %s", resp.StatusCode, body)
	}
}

func TestPanicIsolation(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) { cfg.FaultInjection = true })
	resp, body := get(t, ts.URL+"/debugz/panic")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic = %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Fatalf("500 body does not say what happened: %s", body)
	}
	// The process survived; the very next request is served normally.
	resp2, body2 := get(t, ts.URL+"/v1/run?bench=InnerProduct")
	if resp2.StatusCode != 200 {
		t.Fatalf("request after panic = %d, want 200: %s", resp2.StatusCode, body2)
	}
}

func TestSweepStreamsNDJSONWithHeartbeats(t *testing.T) {
	// Table 3 takes tens of milliseconds on a fresh session, several of the
	// scheduler's 10 ms preemption slices, so the handler gets to run while
	// the sweep does and a 1 ms heartbeat must fire before it ends.
	_, ts := newTestServer(t, func(cfg *Config) { cfg.Heartbeat = time.Millisecond })
	resp, err := http.Get(ts.URL + "/v1/sweep?kind=table3&timeout=5m")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sweep = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []sweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	var resultData any
	for _, ev := range events {
		count[ev.Event]++
		if ev.Event == "result" {
			resultData = ev.Data
		}
		if ev.Event == "error" {
			t.Fatalf("sweep errored: %+v", ev)
		}
	}
	if events[0].Event != "queued" || events[len(events)-1].Event != "done" {
		t.Fatalf("stream must open with queued and close with done: %v", count)
	}
	if count["started"] == 0 || count["result"] != 1 {
		t.Fatalf("event counts: %v", count)
	}
	if count["heartbeat"] == 0 {
		t.Fatalf("no heartbeats in a %d-event stream", len(events))
	}
	if resultData == nil {
		t.Fatal("result event carried no data")
	}
}

// TestSafeMarshalSanitizesNonFiniteFloats pins the boundary guard: the DSE
// layer's +Inf infeasibility markers become JSON nulls instead of killing
// the response encode.
func TestSafeMarshalSanitizesNonFiniteFloats(t *testing.T) {
	type row struct {
		A float64   `json:"a"`
		B []float64 `json:"b"`
		C float64   `json:"-"`
		D float64
	}
	v := row{A: math.Inf(1), B: []float64{1, math.NaN(), 3}, C: 9, D: 2.5}
	data, err := safeMarshal(v, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), `{"D":2.5,"a":null,"b":[1,null,3]}`; got != want {
		t.Fatalf("safeMarshal = %s, want %s", got, want)
	}
	// The fast path leaves finite values byte-for-byte as encoding/json
	// would have them.
	fin := row{A: 1, B: []float64{2}, D: 3}
	data, err = safeMarshal(fin, false)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := json.Marshal(fin)
	if string(data) != string(plain) {
		t.Fatalf("fast path diverged: %s vs %s", data, plain)
	}
}

func TestSweepBadKindIs400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := get(t, ts.URL+"/v1/sweep?kind=nope")
	if resp.StatusCode != 400 {
		t.Fatalf("bad kind = %d, want 400", resp.StatusCode)
	}
	resp2, _ := get(t, ts.URL+"/v1/sweep")
	if resp2.StatusCode != 400 {
		t.Fatalf("missing kind = %d, want 400", resp2.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	// Flip to draining from another goroutine mid-test.
	go s.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := get(t, ts.URL+"/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	// New work is refused while draining.
	resp, _ := get(t, ts.URL+"/v1/run?bench=InnerProduct")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run while draining = %d, want 503", resp.StatusCode)
	}
}

func TestDrainWaitsForInflightAndFlushesDisk(t *testing.T) {
	dir := t.TempDir()
	disk, err := exec.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.Session = core.NewSession(core.WithWorkers(2), core.WithDiskCache(disk))
		// Generous: under -race the evaluation itself can take tens of
		// seconds, and this test is about the drain waiting, not the budget.
		cfg.DrainBudget = 5 * time.Minute
	})
	// A request in flight when the drain starts must still be answered.
	type outcome struct {
		status int
		body   string
	}
	results := make(chan outcome, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/run?bench=GEMM&tenant=inflight")
		if err != nil {
			results <- outcome{status: -1, body: err.Error()}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- outcome{status: resp.StatusCode, body: string(body)}
	}()
	// Give the request time to be admitted, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.requests.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got := <-results
	if got.status != 200 {
		t.Fatalf("in-flight request during drain = %d, want 200: %s", got.status, got.body)
	}
	// The disk tier saw the write-through and survived the drain.
	entries, err := exec.InspectDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("drain left no design points in the persistent tier")
	}
	for _, e := range entries {
		if e.Err != nil {
			t.Fatalf("defective entry after drain: %s: %v", e.File, e.Err)
		}
	}
}

func TestDrainCutsStragglersAtBudget(t *testing.T) {
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.DrainBudget = 5 * time.Millisecond
	})
	// OuterProduct takes on the order of 100ms — far longer than the 5ms
	// budget — so the drain must cut it loose rather than wait.
	results := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/run?bench=OuterProduct&timeout=5m")
		if err != nil {
			results <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.requests.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(t0); took > 10*time.Second {
		t.Fatalf("drain took %v despite a 150ms budget", took)
	}
	status := <-results
	// The straggler was answered with a structured error, not dropped and
	// not a success.
	if status != http.StatusServiceUnavailable && status != http.StatusGatewayTimeout {
		t.Fatalf("straggler status = %d, want 503 or 504", status)
	}
}

func TestStatszShape(t *testing.T) {
	_, ts := newTestServer(t, nil)
	get(t, ts.URL+"/v1/run?bench=InnerProduct")
	_, body := get(t, ts.URL+"/statsz")
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz is not valid JSON: %v\n%s", err, body)
	}
	if st.State != "serving" || st.Slots != 2 || st.QueueCap != 8 || st.Goroutines <= 0 {
		t.Fatalf("statsz = %+v", st)
	}
	if st.Requests < 1 || st.Tenants["anon"].Admitted < 1 {
		t.Fatalf("request accounting: %+v", st)
	}
	if st.Totals.Admitted < st.Tenants["anon"].Admitted || st.Totals.Completed < 1 {
		t.Fatalf("totals must aggregate the tenant ledgers: %+v", st)
	}
	if st.StreamsActive != 0 || st.TuneActive != 0 {
		t.Fatalf("idle server reports active streams: %+v", st)
	}
	if !strings.Contains(string(body), `"streams_active"`) || !strings.Contains(string(body), `"tune_active"`) ||
		!strings.Contains(string(body), `"totals"`) {
		t.Fatalf("statsz document is missing the aggregate fields:\n%s", body)
	}
}

// tuneStream runs one /v1/tune request to completion and returns its NDJSON
// events in order.
func tuneStream(t *testing.T, url string) []sweepEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tune = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []sweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Event == "error" {
			t.Fatalf("tune errored: %+v", ev)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestTuneStreamsGenerationsAndResult drives a tiny /v1/tune search end to
// end: the stream must open with queued, emit at least one generation event,
// carry the plasticine-tune/v1 document in its result event, and close with
// done.
func TestTuneStreamsGenerationsAndResult(t *testing.T) {
	_, ts := newTestServer(t, nil)
	events := tuneStream(t, ts.URL+"/v1/tune?mix=InnerProduct:1&budget=2&pop=4&seed=7&max_area=120&timeout=5m")
	count := map[string]int{}
	var resultData any
	for _, ev := range events {
		count[ev.Event]++
		if ev.Event == "result" {
			resultData = ev.Data
		}
	}
	if events[0].Event != "queued" || events[len(events)-1].Event != "done" {
		t.Fatalf("stream must open with queued and close with done: %v", count)
	}
	if count["generation"] == 0 || count["result"] != 1 {
		t.Fatalf("event counts: %v", count)
	}
	doc, ok := resultData.(map[string]any)
	if !ok || doc["schema"] != "plasticine-tune/v1" {
		t.Fatalf("result data is not a plasticine-tune/v1 document: %v", resultData)
	}
	if _, ok := doc["front"]; !ok {
		t.Fatalf("tune document has no front: %v", doc)
	}
}

// TestTuneRepeatStreamsSameGenerations: a repeated search on a disk-backed
// server re-walks its trajectory from the cache, so the second stream
// reports the same generations and the same result as the first.
func TestTuneRepeatStreamsSameGenerations(t *testing.T) {
	disk, err := exec.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.Session = core.NewSession(core.WithWorkers(2), core.WithDiskCache(disk))
	})
	url := ts.URL + "/v1/tune?mix=InnerProduct:1&budget=8&pop=4&seed=7&max_area=120&timeout=5m"
	// Event names and payloads only: timing fields differ run to run.
	progress := func(events []sweepEvent) string {
		var kept []sweepEvent
		for _, ev := range events {
			if ev.Event == "generation" || ev.Event == "result" {
				kept = append(kept, sweepEvent{Event: ev.Event, Data: ev.Data})
			}
		}
		data, err := json.Marshal(kept)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first := progress(tuneStream(t, url))
	second := progress(tuneStream(t, url))
	if !strings.Contains(first, `"generation"`) {
		t.Fatalf("first stream has no generation events: %s", first)
	}
	if first != second {
		t.Fatalf("repeated search streamed different progress:\n-- first --\n%s\n-- second --\n%s", first, second)
	}
}

// TestTuneBadParamsAre400 pins the pre-admission validation: malformed specs
// are refused before the stream is committed.
func TestTuneBadParamsAre400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, q := range []string{
		"mix=InnerProduct:-1",
		"budget=0",
		"budget=99999",
		"pop=0",
		"max_generations=-1",
		"max_area=-5",
		"seed=notanumber",
	} {
		resp, _ := get(t, ts.URL+"/v1/tune?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tune?%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestConcurrentMixedTrafficNever5xx hammers the server with more
// concurrent mixed requests than it can hold and checks the failure mode:
// shed work answers 429 (or, for expired deadlines, 504) — never a 5xx,
// never a dropped connection.
func TestConcurrentMixedTrafficNever5xx(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.QueueDepth = 4
		cfg.ShedWatermark = 3
		cfg.Concurrency = 2
	})
	paths := []string{
		"/v1/run?bench=InnerProduct",
		"/v1/run?bench=BlackScholes",
		"/v1/explain?bench=TPCHQ6",
		"/v1/compile?bench=InnerProduct",
		"/v1/sweep?kind=bench&bench=InnerProduct",
	}
	var wg sync.WaitGroup
	codes := make([]int, 64)
	for i := 0; i < len(codes); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + paths[i%len(paths)] + fmt.Sprintf("&tenant=t%d", i%4))
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		switch code {
		case 200, http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Errorf("request %d (%s) = %d; burst overload must shed with 429/504, never 5xx or a dropped connection",
				i, paths[i%len(paths)], code)
		}
	}
}
