package bench

import (
	"context"
	"encoding/json"
	"flag"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"sync/atomic"
	"testing"

	"plasticine/internal/core"
	"plasticine/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden.json from a fresh pass of every workload")

func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for _, c := range []struct{ q, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median(3,1,2) = %v, want 2", got)
	}
	if got := Quantile([]float64{4}, 0.95); got != 4 {
		t.Errorf("Quantile of one sample = %v, want 4", got)
	}
	if got := Quantile(xs, 0.99); got != 10 {
		t.Errorf("a quantile past the last rank = %v, want the largest sample", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{0.001, 0.1, 10}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("GeoMean(0.001, 0.1, 10) = %v, want 0.1", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Error("GeoMean(nil) is not NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// shifted adds d[i] to xs[i].
func shifted(xs []float64, d ...float64) []float64 {
	out := slices.Clone(xs)
	for i := range out {
		out[i] += d[i]
	}
	return out
}

// around returns n samples spread evenly over [center-width, center+width].
func around(center, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center - width + 2*width*float64(i)/float64(n-1)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	parent := around(100, 2, 10)
	for _, c := range []struct {
		name   string
		change []float64
		lower  bool
		want   Verdict
	}{
		{"faster everywhere", around(90, 2, 10), true, Improved},
		{"same", around(100, 2, 10), true, NoWorse},
		{"slower within the bound", around(105, 2, 10), true, NoWorse},
		{"slower past the bound", around(115, 2, 10), true, Regressed},
		{"noisier than the bound", around(100, 30, 10), true, Unresolved},
		{"throughput up", around(110, 2, 10), false, Improved},
		{"throughput down past the bound", around(85, 2, 10), false, Regressed},
		// The median moved by more than the parent's IQR, but the change
		// won only 8 of 10 pairs: not an improvement.
		{"faster median, 8 of 10 pairs", shifted(parent, -5, -5, -5, -5, -5, -5, -5, -5, 1, 1), true, NoWorse},
	} {
		if got := Compare(parent, c.change, c.lower, 0.10).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// A metric noisier than its bound is not unresolved when every change
	// run beats every parent run.
	noisy := []float64{100, 100, 100, 100, 160}
	if got := Compare(noisy, []float64{99, 99, 99, 99, 99}, true, 0.10).Verdict; got != NoWorse {
		t.Errorf("noisy metric, every change run better: verdict %s, want no-worse", got)
	}
	exact := []float64{7, 7, 7}
	if got := Compare(exact, []float64{7, 7, 7}, true, 0).Verdict; got != NoWorse {
		t.Errorf("identical counts: verdict %s, want no-worse", got)
	}
	if got := Compare(exact, []float64{8, 8, 8}, true, 0).Verdict; got != Regressed {
		t.Errorf("grown count: verdict %s, want regressed", got)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	perm := func(seed int64, idx int) []int { return passRNG(seed, idx).Perm(13) }
	if !slices.Equal(perm(7, 3), perm(7, 3)) {
		t.Error("one seed and pass gave two op orders")
	}
	if slices.Equal(perm(7, 3), perm(8, 3)) || slices.Equal(perm(7, 3), perm(7, 4)) {
		t.Error("op order ignores the seed or the pass")
	}
	a, b := serveBlock(passRNG(5, 1)), serveBlock(passRNG(5, 1))
	if !slices.Equal(a, b) {
		t.Error("one seed gave two request streams")
	}
	if slices.Equal(a, serveBlock(passRNG(6, 1))) {
		t.Error("request stream ignores the seed")
	}
	mix := map[string]int{}
	for _, r := range a {
		mix[r.endpoint]++
	}
	if want := map[string]int{"run": 35, "explain": 14, "compile": 14, "profile": 7}; !maps.Equal(mix, want) {
		t.Errorf("serve mix %v, want %v", mix, want)
	}
	if faultSeed(3, 1) == faultSeed(4, 1) {
		t.Error("fault plan ignores the seed")
	}
	for seed := int64(-40); seed <= 40; seed++ {
		if s := faultSeed(seed, 5); s < 0 || s >= faultPlans {
			t.Errorf("faultSeed(%d, 5) = %d, outside the %d plans golden.json covers", seed, s, faultPlans)
		}
	}
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json to what the harness
// emits and to the benchmark format's limits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !slices.Equal(names, Workloads()) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, Workloads())
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	check := func(kind string, got []SpecMetric, want []MetricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness emits %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			better := "higher"
			if want[i].LowerIsBetter {
				better = "lower"
			}
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness emits %+v", kind, i, m, want[i])
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %q: bad name or unit %q", kind, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd)
	check("per_layer", spec.PerLayer, PerLayer())
	var setupBound float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

func mustGolden(t *testing.T) *Golden {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func passOK(t *testing.T, p *pass) {
	t.Helper()
	if p.failed != 0 || p.attempted == 0 {
		t.Fatalf("pass: attempted %d, failed %d: %v", p.attempted, p.failed, p.errs)
	}
}

func TestSmokeLogRegTracedAndUntraced(t *testing.T) {
	chk := newChecker(mustGolden(t))
	var ops atomic.Int64
	inst := &evalInstance{workload: "table7", benches: []string{"LogReg"}}
	for _, traced := range []bool{false, true} {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		p := newPass(1, 1, tr, chk, &ops)
		if err := inst.pass(p); err != nil {
			t.Fatal(err)
		}
		passOK(t, p)
		if !traced {
			continue
		}
		for _, layer := range []string{"workloads.build", "compiler.compile", "sim.simulate", "workloads.check", "dhdl.trace", "sim.engine"} {
			if p.raw[layer+"_s"] <= 0 {
				t.Errorf("traced pass recorded no time in %s", layer)
			}
		}
		if n := len(tr.snapshot()); n != 6 {
			t.Errorf("traced LogReg recorded %d spans, want 6 (op and 5 layer calls)", n)
		}
	}
}

func TestSmokeBFSUnderFaultPlan(t *testing.T) {
	inst, err := openSparseFaulted(1)
	if err != nil {
		t.Fatal(err)
	}
	e := inst.(*evalInstance)
	e.benches = []string{"BFS"}
	var ops atomic.Int64
	p := newPass(1, 1, nil, newChecker(mustGolden(t)), &ops)
	if err := e.pass(p); err != nil {
		t.Fatal(err)
	}
	passOK(t, p)
	if p.ident.RecoveryEvents != 2 {
		t.Errorf("BFS survived %d timed faults, want 2", p.ident.RecoveryEvents)
	}
}

func TestSmokeFigure7PanelF(t *testing.T) {
	text, err := dseRender(context.Background(), core.NewSession(core.WithWorkers(1)), "fig7f")
	if err != nil {
		t.Fatal(err)
	}
	var ops atomic.Int64
	p := newPass(1, 1, nil, newChecker(mustGolden(t)), &ops)
	p.op("dse.fig7", "fig7f", func(*op) error {
		return p.chk.check(goldenKey("dse-sweep", -1, "fig7f"), Identity{Hash: hashText(text)})
	})
	passOK(t, p)
}

func TestSmokeServeExplainAndRun(t *testing.T) {
	inst, err := openServe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serveInstance)
	var ops atomic.Int64
	p := newPass(1, 1, nil, newChecker(mustGolden(t)), &ops)
	for c, r := range []request{{"explain", "BFS"}, {"run", "BFS"}} {
		p.op("serve."+r.endpoint, r.endpoint, func(*op) error { return s.do(p, c, r) })
	}
	passOK(t, p)
	if p.ident.Cycles == 0 {
		t.Error("/v1/run answered no cycles")
	}
}

// TestGolden checks that golden.json covers every op, including all of
// sparse-faulted's fault plans, and that its Table 7 cycles equal
// BENCH_sim.json's. With -update it first rewrites golden.json from one
// fresh pass of each workload and one sparse-faulted pass per fault plan.
func TestGolden(t *testing.T) {
	if *update {
		writeGolden(t)
	}
	data, err := os.ReadFile("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, b := range workloads.All() {
		want = append(want, goldenKey("table7", -1, b.Name()))
	}
	for _, d := range dseOps {
		want = append(want, goldenKey("dse-sweep", -1, d.name))
	}
	for _, b := range serveBenches {
		want = append(want, goldenKey("serve-mix", -1, "compile/"+b))
	}
	for seed := int64(0); seed < faultPlans; seed++ {
		for _, b := range sparseBenches {
			want = append(want, goldenKey("sparse-faulted", seed, b))
		}
	}
	for _, k := range want {
		if _, ok := g.Entries[k]; !ok {
			t.Errorf("golden.json has no entry %s", k)
		}
	}
	if g.Table7SpeedupErr <= 1 {
		t.Errorf("golden.json speedup error %v, want > 1", g.Table7SpeedupErr)
	}

	simData, err := os.ReadFile("../BENCH_sim.json")
	if err != nil {
		t.Skip("no BENCH_sim.json beside the benchmark:", err)
	}
	var rec struct {
		Results []struct {
			Benchmark string `json:"benchmark"`
			Cycles    int64  `json:"cycles"`
		} `json:"results"`
	}
	if err := json.Unmarshal(simData, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != 13 {
		t.Fatalf("BENCH_sim.json has %d results, want 13", len(rec.Results))
	}
	for _, r := range rec.Results {
		if got := g.Entries[goldenKey("table7", -1, r.Benchmark)].Cycles; got != r.Cycles {
			t.Errorf("%s: golden.json has %d cycles, BENCH_sim.json %d", r.Benchmark, got, r.Cycles)
		}
	}
}

// writeGolden regenerates golden.json. Table 7 runs first, so the serve-mix
// pass checks its /v1/run and /v1/profile answers against Table 7's counts.
func writeGolden(t *testing.T) {
	chk := newChecker(&Golden{})
	var ops atomic.Int64
	runOne := func(inst instance, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		p := newPass(0, 1, nil, chk, &ops)
		if err := inst.pass(p); err != nil {
			t.Fatal(err)
		}
		passOK(t, p)
	}
	runOne(openTable7(1))
	runOne(openDSE(1))
	runOne(openServe(1))
	for seed := int64(0); seed < faultPlans; seed++ {
		runOne(openSparseFaulted(seed)) // pass 0 meets plan faultSeed(seed, 0) = seed
	}
	g := Golden{Table7SpeedupErr: chk.speedupErr, Entries: chk.seen}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
