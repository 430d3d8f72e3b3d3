// Command serve-load is the soak client for `plasticine serve`: it drives a
// running server through the failure modes the serving layer promises to
// survive and exits non-zero if any promise breaks.
//
//	serve-load -addr http://localhost:9414 [-burst 64] [-expect-shed] [-panic]
//
// Checks, in order:
//
//  1. Readiness: /readyz answers 200 within -wait.
//  2. Burst: -burst concurrent mixed requests (run/compile/explain/sweep
//     across -tenants tenants). Overload must shed with 429 (or 504 for
//     expired deadlines) — any 5xx or dropped connection fails the soak;
//     with -expect-shed, at least one 429 must actually occur.
//  3. Cache: an identical request set repeated afterwards must raise the
//     server's cache hit counter — tenants share one design-point cache.
//  4. Panic isolation (-panic): /debugz/panic must answer 500 and the very
//     next request 200 — one poisoned request, not a dead process.
//  5. Metrics: /metricsz is scraped before and after the burst; the
//     exposition must stay parseable, request counters must move by at
//     least the burst size, with -expect-shed the shed counter must move,
//     and with -panic the panic counter must reach 1. /debugz/requests
//     must show traced requests with phase spans; no record's phase_us may
//     exceed its wall_us, and every served /v1/compile and /v1/explain
//     record must carry a compile span with its passes below it.
//  6. Leaks: the final /statsz goroutine count must be under -max-goroutines
//     after the storm has passed.
//
// The SIGTERM drain check (signal mid-flight, expect exit 0 and a flushed
// cache tier) is orchestrated by the caller — see the CI workflow — because
// it is about the server process, not the HTTP surface.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

var (
	addr          = flag.String("addr", "http://localhost:9414", "server base URL")
	burst         = flag.Int("burst", 64, "concurrent requests in the overload burst (size it at ~4x server capacity)")
	tenants       = flag.Int("tenants", 4, "distinct tenants issuing the burst")
	expectShed    = flag.Bool("expect-shed", false, "fail unless the burst actually produced at least one 429")
	panicProbe    = flag.Bool("panic", false, "probe /debugz/panic (server must run with -fault-injection)")
	maxGoroutines = flag.Int("max-goroutines", 500, "goroutine ceiling in the final /statsz snapshot")
	wait          = flag.Duration("wait", 30*time.Second, "how long to wait for /readyz")
)

var client = &http.Client{Timeout: 5 * time.Minute}

// get issues one GET and returns (status, body); status 0 means the
// connection itself failed — always a soak failure.
func get(path string) (int, []byte) {
	resp, err := client.Get(*addr + path)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// stats fetches the fields of /statsz this client cares about.
type stats struct {
	Goroutines int `json:"goroutines"`
	Cache      struct {
		Hits   int64 `json:"Hits"`
		Misses int64 `json:"Misses"`
	} `json:"cache"`
	Tenants map[string]struct {
		Admitted int64 `json:"admitted"`
		Shed     int64 `json:"shed"`
	} `json:"tenants"`
}

func snapshot() (stats, error) {
	var st stats
	code, body := get("/statsz")
	if code != 200 {
		return st, fmt.Errorf("/statsz = %d: %s", code, body)
	}
	return st, json.Unmarshal(body, &st)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serve-load: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// scrapeMetric fetches /metricsz and sums the values of every sample whose
// line starts with prefix (family name, optionally with a label matcher).
// The bool reports whether any sample matched.
func scrapeMetric(prefix string) (float64, bool) {
	code, body := get("/metricsz")
	if code != 200 {
		fail("/metricsz = %d: %s", code, body)
	}
	total, found := 0.0, false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			fail("unparsable /metricsz sample %q: %v", line, err)
		}
		total += v
		found = true
	}
	return total, found
}

func main() {
	flag.Parse()

	// 1. Readiness.
	deadline := time.Now().Add(*wait)
	for {
		if code, _ := get("/readyz"); code == 200 {
			break
		}
		if time.Now().After(deadline) {
			fail("server not ready within %s", *wait)
		}
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Println("serve-load: server ready")

	// Baseline scrape before the burst: the counters we assert on below
	// must move relative to this, not to zero, so the soak composes with
	// whatever ran before it.
	reqBefore, _ := scrapeMetric("plasticine_http_requests_total")
	shedBefore, _ := scrapeMetric("plasticine_requests_shed_total")

	// 2. Overload burst: mixed request classes, several tenants. The
	// contract under overload is shed-with-429, never 5xx, never a dropped
	// connection. 504 is legal too: a deadline can expire while queued.
	paths := []string{
		"/v1/run?bench=InnerProduct",
		"/v1/run?bench=BlackScholes",
		"/v1/run?bench=GEMM",
		"/v1/compile?bench=TPCHQ6",
		"/v1/explain?bench=GDA",
		"/v1/sweep?kind=bench&bench=InnerProduct",
	}
	codes := make([]int, *burst)
	var wg sync.WaitGroup
	for i := 0; i < *burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("%s&tenant=soak%d", paths[i%len(paths)], i%*tenants)
			codes[i], _ = get(p)
		}(i)
	}
	wg.Wait()
	tally := map[int]int{}
	for i, code := range codes {
		tally[code]++
		switch {
		case code == 0:
			fail("request %d (%s): connection dropped under load", i, paths[i%len(paths)])
		case code >= 500:
			fail("request %d (%s) = %d: overload must answer 429, never 5xx", i, paths[i%len(paths)], code)
		}
	}
	fmt.Printf("serve-load: burst of %d: statuses %v\n", *burst, tally)
	if *expectShed && tally[http.StatusTooManyRequests] == 0 {
		fail("burst of %d produced no 429s; shedding never engaged", *burst)
	}

	// 3. Cross-tenant cache coalescing: repeat an identical set from a fresh
	// tenant and require the hit counter to move.
	before, err := snapshot()
	if err != nil {
		fail("statsz before repeat: %v", err)
	}
	for _, p := range []string{"/v1/run?bench=InnerProduct&tenant=repeat", "/v1/run?bench=InnerProduct&tenant=repeat2"} {
		if code, body := get(p); code != 200 {
			fail("repeat request %s = %d: %s", p, code, body)
		}
	}
	after, err := snapshot()
	if err != nil {
		fail("statsz after repeat: %v", err)
	}
	if after.Cache.Hits <= before.Cache.Hits {
		fail("cache hits did not move on repeated requests (%d -> %d)", before.Cache.Hits, after.Cache.Hits)
	}
	fmt.Printf("serve-load: cache hits %d -> %d on repeat\n", before.Cache.Hits, after.Cache.Hits)

	// 4. Panic isolation.
	if *panicProbe {
		code, _ := get("/debugz/panic")
		if code != 500 {
			fail("/debugz/panic = %d, want 500", code)
		}
		if code, body := get("/v1/run?bench=InnerProduct&tenant=afterpanic"); code != 200 {
			fail("request after panic = %d: %s — the process must survive a poisoned request", code, body)
		}
		fmt.Println("serve-load: panic isolated; server survived")
	}

	// 5. Metrics moved with the traffic. Request counting is middleware-side,
	// so even shed requests count; the delta must cover the whole burst.
	reqAfter, ok := scrapeMetric("plasticine_http_requests_total")
	if !ok {
		fail("no plasticine_http_requests_total samples in /metricsz")
	}
	if delta := reqAfter - reqBefore; delta < float64(*burst) {
		fail("http_requests_total moved by %.0f across a burst of %d", delta, *burst)
	}
	if *expectShed {
		shedAfter, _ := scrapeMetric("plasticine_requests_shed_total")
		if shedAfter <= shedBefore {
			fail("requests_shed_total did not move (%.0f -> %.0f) despite 429s", shedBefore, shedAfter)
		}
		fmt.Printf("serve-load: shed counter %.0f -> %.0f\n", shedBefore, shedAfter)
	}
	if *panicProbe {
		if panics, _ := scrapeMetric("plasticine_request_panics_total"); panics < 1 {
			fail("request_panics_total = %.0f after a panic probe, want >= 1", panics)
		}
	}
	// The trace ring saw the burst: at least one record with phase spans,
	// top-level phases that never sum past wall time, and the compile
	// itself in every served compile and explain.
	code, body := get("/debugz/requests")
	if code != 200 {
		fail("/debugz/requests = %d: %s", code, body)
	}
	type span struct {
		Name     string  `json:"name"`
		Children []*span `json:"children"`
	}
	var ring struct {
		Requests []struct {
			ID      string  `json:"id"`
			Route   string  `json:"route"`
			Status  int     `json:"status"`
			WallUS  int64   `json:"wall_us"`
			PhaseUS int64   `json:"phase_us"`
			Phases  []*span `json:"phases"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(body, &ring); err != nil {
		fail("/debugz/requests is not JSON: %v", err)
	}
	var hasCompile func(spans []*span) bool
	hasCompile = func(spans []*span) bool {
		for _, sp := range spans {
			if sp.Name == "compile" && len(sp.Children) > 0 || hasCompile(sp.Children) {
				return true
			}
		}
		return false
	}
	traced, compiles := 0, 0
	for _, r := range ring.Requests {
		if r.ID != "" && len(r.Phases) > 0 {
			traced++
		}
		if r.PhaseUS > r.WallUS {
			fail("request %s (%s): phase_us %d exceeds wall_us %d", r.ID, r.Route, r.PhaseUS, r.WallUS)
		}
		if (r.Route == "/v1/compile" || r.Route == "/v1/explain") && r.Status == 200 {
			if !hasCompile(r.Phases) {
				fail("request %s (%s): no compile span with passes in its record", r.ID, r.Route)
			}
			compiles++
		}
	}
	if traced == 0 {
		fail("trace ring holds no requests with phase spans after the burst")
	}
	if compiles == 0 {
		fail("trace ring holds no served /v1/compile or /v1/explain record after the burst")
	}
	fmt.Printf("serve-load: metrics moved (%.0f requests total), %d traced requests in ring, %d with a compile span\n",
		reqAfter, traced, compiles)

	// 6. Goroutine ceiling after the storm: give pollers a moment to wind
	// down, then check the final snapshot.
	time.Sleep(500 * time.Millisecond)
	final, err := snapshot()
	if err != nil {
		fail("final statsz: %v", err)
	}
	if final.Goroutines > *maxGoroutines {
		fail("%d goroutines after the storm (ceiling %d): likely a leak", final.Goroutines, *maxGoroutines)
	}
	fmt.Printf("serve-load: OK (%d goroutines, %d cache hits, %d tenants seen)\n",
		final.Goroutines, final.Cache.Hits, len(final.Tenants))
}
