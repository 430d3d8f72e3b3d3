// Package bench is the repository's end-to-end benchmark. Each workload runs
// in its own process and drives the system only through its public calls:
// core.Session, workloads.Benchmark.Build/Check, compiler.CompileOpts,
// dhdl.Trace, sim.Simulate and serve.Server over loopback HTTP.
//
// A run sets the workload up, runs one checked warm-up pass, then measures
// passes for the requested time; setup_s comes from separate set-up-only
// processes (MeasureSetup). An untraced run reports the end-to-end metrics.
// A traced run alternates untraced passes with traced ones, which call each
// layer separately and record a span around every call; it reports the
// per-layer metrics. Every op's output is checked: functional checks inside
// the system, and simulated counts or rendered tables against golden.json.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Config selects one run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long measured passes run; a run measures at least
	// minPasses passes (minTracedPasses traced ones when Traced).
	Seconds  float64
	Traced   bool
	TraceOut string    // traced runs: write the spans here as JSON lines
	Log      io.Writer // human-readable summary; nil discards it
	// Setup holds set-up times from MeasureSetup; without them setup_s is
	// this run's own in-process set-up.
	Setup []float64
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what a run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is a Result together with the run that produced it and the
// distribution behind its medians; -out files hold one each.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result
	Detail map[string]float64 `json:"detail"`
	Errors []string           `json:"errors,omitempty"`
}

// MetricSpec names a metric, its unit and its direction.
type MetricSpec struct {
	Name          string
	Unit          string
	LowerIsBetter bool
}

// EndToEnd are the metrics an untraced run reports.
var EndToEnd = []MetricSpec{
	{"setup_s", "s", true},
	{"pass_s", "s", true},
	{"op_gmean_s", "s", true},
	{"op_p95_s", "s", true},
	{"peak_rss_mb", "MB", true},
}

// layerMetric is a per-layer metric and how one traced pass yields it.
type layerMetric struct {
	MetricSpec
	value func(p *pass) float64
	// exact marks a simulated count. It is read from the first traced pass
	// rather than as a median: that pass gets the same inputs (fault plan,
	// serve-mix run targets) whenever the seed is the same, so the count
	// repeats exactly.
	exact bool
}

// share is a layer's time as a share of the traced pass.
func share(layer string) func(*pass) float64 {
	return func(p *pass) float64 { return p.raw[layer+"_s"] / p.wall }
}

func rawValue(key string) func(*pass) float64 {
	return func(p *pass) float64 { return p.raw[key] }
}

func lm(name, unit string, lower bool, value func(*pass) float64) layerMetric {
	return layerMetric{MetricSpec: MetricSpec{name, unit, lower}, value: value}
}

// exactCount is a simulated count, summed over the pass's ops.
func exactCount(name string, f func(Identity) int64) layerMetric {
	return layerMetric{MetricSpec{name, "count", true}, func(p *pass) float64 { return float64(f(p.ident)) }, true}
}

// serveShare is an endpoint's share of all client-observed request time.
func serveShare(endpoint string) func(*pass) float64 {
	return func(p *pass) float64 {
		total := 0.0
		for _, e := range endpoints {
			total += p.raw["serve."+e+"_s"]
		}
		if total == 0 {
			return 0
		}
		return p.raw["serve."+endpoint+"_s"] / total
	}
}

// Layer times are shares (of the traced pass, or for serve of all request
// time) rather than seconds: a layer a workload never calls then reads as a
// true 0, a share needs no calibration, and the pass length that turns
// shares back into seconds is bench.traced_pass_s.
var layerMetrics = []layerMetric{
	lm("bench.traced_pass_s", "s", true, func(p *pass) float64 { return p.wall * p.scale() }),
	lm("workloads.build_share", "ratio", true, share("workloads.build")),
	lm("workloads.build_allocs", "count", true, rawValue("workloads.build_allocs")),
	lm("workloads.check_share", "ratio", true, share("workloads.check")),
	lm("compiler.compile_share", "ratio", true, share("compiler.compile")),
	lm("compiler.compile_allocs", "count", true, rawValue("compiler.compile_allocs")),
	lm("dhdl.trace_share", "ratio", true, share("dhdl.trace")),
	lm("dhdl.trace_allocs", "count", true, rawValue("dhdl.trace_allocs")),
	lm("sim.simulate_share", "ratio", true, share("sim.simulate")),
	lm("sim.simulate_allocs", "count", true, rawValue("sim.simulate_allocs")),
	lm("sim.engine_share", "ratio", true, share("sim.engine")),
	lm("sim.graph_share", "ratio", true, func(p *pass) float64 {
		return max(0, p.raw["sim.simulate_s"]-p.raw["sim.engine_s"]-p.raw["dhdl.trace_s"]) / p.wall
	}),
	lm("sim.mcycles_per_s", "Mcycle/s", false, func(p *pass) float64 {
		if p.raw["sim.engine_s"] == 0 {
			return 0
		}
		return p.raw["sim.engine_cycles"] / (p.raw["sim.engine_s"] * p.scale()) / 1e6
	}),
	exactCount("sim.cycles", func(id Identity) int64 { return id.Cycles }),
	exactCount("sim.recovery_events", func(id Identity) int64 { return id.RecoveryEvents }),
	exactCount("sim.recovery_drain_cycles", func(id Identity) int64 { return id.DrainCycles }),
	exactCount("sim.recovery_reconfig_cycles", func(id Identity) int64 { return id.ReconfigCycles }),
	exactCount("dram.bytes", func(id Identity) int64 { return id.DRAMBytes }),
	exactCount("dram.retries", func(id Identity) int64 { return id.Retries }),
	exactCount("dram.spikes", func(id Identity) int64 { return id.Spikes }),
	lm("dse.table3_share", "ratio", true, share("dse.table3")),
	lm("dse.fig7_share", "ratio", true, share("dse.fig7")),
	lm("dse.table6_share", "ratio", true, share("dse.table6")),
	lm("dse.ratios_share", "ratio", true, share("dse.ratios")),
	lm("dse.points", "count", true, rawValue("dse.points")),
	lm("serve.run_share", "ratio", true, serveShare("run")),
	lm("serve.explain_share", "ratio", true, serveShare("explain")),
	lm("serve.compile_share", "ratio", true, serveShare("compile")),
	lm("serve.profile_share", "ratio", true, serveShare("profile")),
	lm("serve.shed", "count", true, rawValue("serve.shed")),
}

// runLevelLayer are per-layer metrics computed over the whole traced run
// rather than per traced pass.
var runLevelLayer = []MetricSpec{
	{"bench.trace_overhead", "ratio", true},
	{"exec.cache_hit_ratio", "ratio", false},
}

// PerLayer are the metrics a traced run reports.
func PerLayer() []MetricSpec {
	out := make([]MetricSpec, 0, len(layerMetrics)+len(runLevelLayer))
	for _, m := range layerMetrics {
		out = append(out, m.MetricSpec)
	}
	return append(out, runLevelLayer...)
}

const (
	minPasses       = 3
	minTracedPasses = 3
)

// workload is one named traffic shape. open sets it up (setup_s times it);
// the instance then runs passes until closed.
type workload struct {
	name string
	open func(seed int64) (instance, error)
}

type instance interface {
	// pass runs one pass of ops. Op failures are recorded in p; an error
	// means the pass could not run at all.
	pass(p *pass) error
	close()
}

// The workloads stress different layers, so that a change to one layer
// shows on one workload and leaves another unchanged (README.md).
var workloadList = []workload{
	{"table7", openTable7},                // the interpreter dominates
	{"sparse-faulted", openSparseFaulted}, // the event engine dominates
	{"dse-sweep", openDSE},                // compiler and cache only
	{"serve-mix", openServe},              // the HTTP service and its cache hit path
}

// Workloads returns the workload names.
func Workloads() []string {
	out := make([]string, len(workloadList))
	for i, w := range workloadList {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// pass is one pass's ops and measurements. Ops may run concurrently.
type pass struct {
	idx int
	rng *rand.Rand
	tr  *tracer // nil in an untraced pass
	chk *checker
	ops *atomic.Int64 // op ids, shared by a run's passes

	wall float64 // set when the pass has finished, calibration time excluded

	// calib holds the calibration kernel's times measured during the pass,
	// and calibTime the time sample took in all.
	calib     []float64
	calibTime float64

	mu        sync.Mutex
	lat       []float64
	latByName map[string][]float64
	attempted int
	failed    int
	errs      []string
	raw       map[string]float64
	ident     Identity
}

func newPass(idx int, seed int64, tr *tracer, chk *checker, ops *atomic.Int64) *pass {
	return &pass{idx: idx, rng: passRNG(seed, idx), tr: tr, chk: chk, ops: ops,
		latByName: map[string][]float64{}, raw: map[string]float64{}}
}

// settle readies the process for the next op. It collects the heap, so the
// garbage of the ops before cannot push the next op's peak around, and it
// times the calibration kernel. The collection counts toward the pass, so
// garbage still costs pass time; the kernel does not. Call it between ops,
// never while ops run.
func (p *pass) settle() {
	runtime.GC()
	p.sample()
}

// sample times the calibration kernel, off the pass's clock.
func (p *pass) sample() {
	t0 := time.Now()
	p.calib = append(p.calib, calibrate())
	p.calibTime += time.Since(t0).Seconds()
}

// scale converts the pass's host times to the reference speed.
func (p *pass) scale() float64 { return calibRef / Median(p.calib) }

// passRNG is the only source of op order and request choice: a function of
// the seed and the pass index alone.
func passRNG(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(idx)))
}

func (p *pass) add(key string, v float64) {
	p.mu.Lock()
	p.raw[key] += v
	p.mu.Unlock()
}

func (p *pass) addIdentity(id Identity) {
	p.mu.Lock()
	p.ident.add(id)
	p.mu.Unlock()
}

// op is one operation inside a pass.
type op struct {
	p    *pass
	id   int
	span int
}

// op runs one operation: it times fn, counts it as attempted and, if fn
// fails, as failed. A traced pass wraps it in a span called span.
func (p *pass) op(span, label string, fn func(o *op) error) {
	o := &op{p: p, id: int(p.ops.Add(1))}
	var end func() (time.Duration, uint64)
	if p.tr != nil {
		o.span, end = p.tr.begin(p.idx, o.id, 0, span, label)
	}
	t0 := time.Now()
	err := fn(o)
	d := time.Since(t0)
	if end != nil {
		end()
		p.add(span+"_s", d.Seconds())
	}
	if err != nil {
		p.check(label, err)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.lat = append(p.lat, d.Seconds())
	p.latByName[span] = append(p.latByName[span], d.Seconds())
}

// check counts one untimed check of the pass's output as attempted and, if
// err is not nil, as failed.
func (p *pass) check(label string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		p.errs = append(p.errs, fmt.Sprintf("%s: %v", label, err))
	}
}

// layer runs fn as a call into one layer; a traced pass records it as a
// child span of the op and sums its time and allocations.
func (o *op) layer(name string, fn func() error) error {
	if o.p.tr == nil {
		return fn()
	}
	_, end := o.p.tr.begin(o.p.idx, o.id, o.span, name, "")
	err := fn()
	d, allocs := end()
	o.p.add(name+"_s", d.Seconds())
	o.p.add(name+"_allocs", float64(allocs))
	return err
}

// Run runs one workload and returns its record. Op failures make the
// record incorrect; an error means the run could not be carried out.
func Run(ctx context.Context, cfg Config) (*Record, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	chk := newChecker(g)
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	t0 := time.Now()
	inst, err := w.open(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: %s set-up: %w", w.name, err)
	}
	defer inst.close()
	setups := cfg.Setup
	if len(setups) == 0 {
		setups = []float64{time.Since(t0).Seconds()}
	}

	rec := &Record{Workload: w.name, Seed: cfg.Seed, Detail: map[string]float64{}}
	if cfg.Traced {
		rec.Trace = 1
	}
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	var ops atomic.Int64
	var results []*pass
	runPass := func(idx int, traced bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := newPass(idx, cfg.Seed, nil, chk, &ops)
		if traced {
			p.tr = tr
		}
		t0 := time.Now()
		if err := inst.pass(p); err != nil {
			return fmt.Errorf("bench: %s pass %d: %w", w.name, idx, err)
		}
		p.wall = time.Since(t0).Seconds() - p.calibTime
		// One more calibration sample, after the last op. The next pass's
		// first settle collects this pass's last garbage, on its clock.
		p.sample()
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		rec.Errors = append(rec.Errors, p.errs...)
		if idx == 0 {
			rec.Detail["warmup_s"] = p.wall * p.scale()
		} else {
			results = append(results, p)
		}
		return nil
	}
	// Pass 0 warms caches and lazy set-up; it is checked but not timed.
	if err := runPass(0, false); err != nil {
		return nil, err
	}
	start := time.Now()
	for idx := 1; ; {
		if cfg.Traced {
			if err := runPass(idx, false); err != nil {
				return nil, err
			}
			idx++
		}
		if err := runPass(idx, cfg.Traced); err != nil {
			return nil, err
		}
		idx++
		measured, want := len(results), minPasses
		if cfg.Traced {
			measured, want = countTraced(results), minTracedPasses
		}
		if measured >= want && time.Since(start).Seconds() >= cfg.Seconds {
			break
		}
	}
	if len(rec.Errors) > 5 {
		rec.Errors = rec.Errors[:5]
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0

	if cfg.Traced {
		rec.Metrics = layerResult(results)
		self := selfTimes(tr.snapshot(), countTraced(results))
		printSelfTimes(log, self)
		if cfg.TraceOut != "" {
			if err := tr.writeFile(cfg.TraceOut); err != nil {
				return nil, fmt.Errorf("bench: writing spans: %w", err)
			}
		}
	} else {
		rec.Metrics, err = endToEndResult(results, setups, rec.Detail)
		if err != nil {
			return nil, err
		}
	}
	printRecord(log, rec)
	return rec, nil
}

func countTraced(rs []*pass) int {
	n := 0
	for _, r := range rs {
		if r.tr != nil {
			n++
		}
	}
	return n
}

func endToEndResult(rs []*pass, setups []float64, detail map[string]float64) (map[string]Metric, error) {
	var walls, rawWalls, calib, lat []float64
	byName := map[string][]float64{}
	for _, r := range rs {
		s := r.scale()
		walls = append(walls, r.wall*s)
		rawWalls = append(rawWalls, r.wall)
		calib = append(calib, r.calib...)
		for _, l := range r.lat {
			lat = append(lat, l*s)
		}
		for k, v := range r.latByName {
			for _, l := range v {
				byName[k] = append(byName[k], l*s)
			}
		}
	}
	detail["pass_unscaled_s"], detail["calibration_s"] = Median(rawWalls), Median(calib)
	if len(byName) > 1 {
		for k, v := range byName {
			detail["op."+k+".p50_s"] = Median(v)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	pass := Summarize(walls)
	detail["pass_s.p25"], detail["pass_s.p75"], detail["pass_s.n"] = pass.Q1, pass.Q3, float64(pass.N)
	detail["op.n"] = float64(len(lat))
	if tail := TailPercentile(len(lat)); tail > 0 {
		detail["op.tail_pct"], detail["op.tail_s"] = tail, Quantile(lat, tail/100)
	}
	if len(lat) == 0 {
		// Every op failed (and the run reads incorrect). JSON has no NaN,
		// so stand in the pass times for the missing latencies.
		lat = walls
	}
	detail["op.p50_s"] = Median(lat)
	return map[string]Metric{
		"setup_s":     {Median(setups), "s"},
		"pass_s":      {pass.Median, "s"},
		"op_gmean_s":  {GeoMean(lat), "s"},
		"op_p95_s":    {Quantile(lat, 0.95), "s"},
		"peak_rss_mb": {rss, "MB"},
	}, nil
}

func layerResult(rs []*pass) map[string]Metric {
	out := map[string]Metric{}
	for _, m := range layerMetrics {
		var vals []float64
		for _, r := range rs {
			if r.tr != nil {
				vals = append(vals, m.value(r))
			}
		}
		v := Median(vals)
		if m.exact {
			v = vals[0]
		}
		out[m.Name] = Metric{v, m.Unit}
	}
	var traced, plain []float64
	var hits, misses float64
	for _, r := range rs {
		if r.tr != nil {
			traced = append(traced, r.wall*r.scale())
		} else {
			plain = append(plain, r.wall*r.scale())
		}
		hits += r.raw["exec.hits"]
		misses += r.raw["exec.misses"]
	}
	out["bench.trace_overhead"] = Metric{Median(traced)/Median(plain) - 1, "ratio"}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	out["exec.cache_hit_ratio"] = Metric{ratio, "ratio"}
	return out
}

func printRecord(w io.Writer, rec *Record) {
	fmt.Fprintf(w, "%s seed=%d trace=%d: correct=%t attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, k := range sortedKeys(rec.Metrics) {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(rec.Detail) {
		fmt.Fprintf(w, "  %-30s %14.6g\n", k, rec.Detail[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("bench: getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}
