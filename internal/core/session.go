package core

// Session is the unified library facade over the whole reproduction: one
// handle that owns the architecture, the default fault plan, the simulator
// options, and — centrally — the parallel evaluation engine (worker pool +
// design-point cache) that every consumer shares. The CLI subcommands all
// construct a Session; so should library users who want more than a single
// one-shot run.
//
// Determinism: every Session method returns byte-identical results at any
// worker count. Jobs write only their own index-addressed result slots, all
// shared inputs (benchmark definitions, params, the base fault plan) are
// treated as immutable — recovery extends its own copy of a plan — and
// merge order is fixed by job index, never completion order.
//
// Concurrency: one Session may serve many goroutines at once — the serving
// layer (internal/serve) drives exactly this pattern, mixing Run, Profile,
// Explain and the sweeps through one shared handle. The audit behind that
// claim: configuration (params and their key, plan, simOpts, policy, disk)
// is written only during NewSession and read-only afterwards; the engine
// (pool, cache, retry counter) is concurrency-safe by construction;
// per-call mutable state (fresh benchmark instances, trace collectors) is
// private to the call; the functional memo (memo.go) is an exec.Cache like
// the design-point cache; and the lazily-built DSE sweep is guarded by
// dseOnce. TestSessionConcurrentMixedUse locks the property in under -race.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/dse"
	"plasticine/internal/exec"
	"plasticine/internal/fault"
	"plasticine/internal/metrics"
	"plasticine/internal/sim"
	"plasticine/internal/trace"
	"plasticine/internal/workloads"
)

// Session is the facade handle. Construct with NewSession; the zero value is
// not usable.
type Session struct {
	params  arch.Params
	engine  *exec.Engine
	plan    *fault.Plan
	simOpts sim.Options
	policy  exec.JobPolicy
	disk    *exec.DiskCache

	// paramsKey is params rendered for cache keys, once per session.
	paramsKey string

	// dseOnce lazily allocates benchmark virtual units exactly once per
	// session; every DSE entry point shares the result, so a Table 3 run
	// after a Figure 7 panel re-derives nothing.
	dseOnce    sync.Once
	dseSweep   *dse.Sweep
	dseLoadErr error

	// closeOnce makes Close idempotent: a server's drain path and its
	// deferred cleanup may both call it.
	closeOnce sync.Once
	closeErr  error

	// memo is the session's functional memo (memo.go): one leaf-event log
	// and Check verdict per benchmark name, which its timings replay.
	memo *exec.Cache

	// metricsReg is the instrumentation registry the serving layer
	// installs via UseMetrics. Atomic because installation may race a
	// request that is already reading it; nil means uninstrumented.
	metricsReg atomic.Pointer[metrics.Registry]
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithArch sets the architecture parameters (default: the paper's final
// configuration, arch.Default()).
func WithArch(p arch.Params) SessionOption {
	return func(s *Session) { s.params = p }
}

// WithFaults sets the fault plan benchmark runs compile and simulate under
// (default: pristine fabric). No run writes the plan, so one plan may back
// many parallel jobs.
func WithFaults(plan *fault.Plan) SessionOption {
	return func(s *Session) { s.plan = plan }
}

// WithSimOptions sets the simulator options benchmark runs use (default:
// sim.Options{}). Leave Recorder nil: Profile arms its own collector, and a
// cached run would feed one only on a miss.
func WithSimOptions(opts sim.Options) SessionOption {
	return func(s *Session) { s.simOpts = opts }
}

// WithWorkers sets the evaluation engine's worker count: n > 1 fans
// independent compile+simulate jobs across n goroutines, n == 1 runs
// sequentially, n <= 0 uses runtime.NumCPU().
func WithWorkers(n int) SessionOption {
	return func(s *Session) { s.engine = exec.NewEngine(n) }
}

// WithJobPolicy sets the per-job deadline/retry policy every cached
// evaluation runs under (default: zero policy — no deadline, no retries).
// Transient failures (per-job deadline expiry, watchdog aborts caused by a
// dying context) are retried with exponential backoff; permanent ones
// (compile errors, infeasible mappings, cycle-budget exhaustion, functional
// mismatches, panics) fail immediately.
func WithJobPolicy(p exec.JobPolicy) SessionOption {
	return func(s *Session) { s.policy = p }
}

// WithDiskCache puts a disk-backed persistent tier under the design-point
// cache: results survive the process, so a killed sweep rerun against the
// same tier resumes from its completed points (default: memory only).
func WithDiskCache(d *exec.DiskCache) SessionOption {
	return func(s *Session) { s.disk = d }
}

// NewSession builds a session. Defaults: paper architecture, no faults, one
// worker, fresh cache, no persistence, no job policy.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{params: arch.Default(), engine: exec.NewEngine(1), memo: exec.NewCache()}
	for _, o := range opts {
		o(s)
	}
	// Applied after the options so ordering relative to WithWorkers (which
	// replaces the engine) does not matter.
	s.engine.AttachDisk(s.disk)
	s.engine.SetPolicy(s.policy)
	s.paramsKey = s.params.Key()
	return s
}

// Params returns the session's architecture parameters.
func (s *Session) Params() arch.Params { return s.params }

// Workers reports the engine's concurrency.
func (s *Session) Workers() int { return s.engine.Workers() }

// Engine exposes the session's evaluation engine — the serving layer reads
// pool occupancy (Engine().Pool().Running()) for its load-shedding
// watermark and /statsz.
func (s *Session) Engine() *exec.Engine { return s.engine }

// CacheStats snapshots the design-point cache counters. Misses equals the
// number of distinct results computed (benchmark runs, descents, Table 6
// rows, tuner evaluations), so it is identical at any worker count; surface
// it in sweep summaries.
func (s *Session) CacheStats() exec.CacheStats { return s.engine.CacheStats() }

// Retries reports how many transient job failures the session's policy has
// retried so far.
func (s *Session) Retries() int64 { return s.engine.Retries() }

// FlushCache makes the persistent tier durable (a no-op without one). Call
// it on shutdown — including interrupted shutdown — so completed design
// points survive for the next run to resume from.
func (s *Session) FlushCache() error { return s.engine.Cache().Disk().Flush() }

// Close ends the session's lifecycle: it flushes the persistent cache tier
// so every completed design point survives the process. Idempotent and safe
// to call concurrently — later calls return the first call's error — and
// deliberately tolerant of in-flight work: evaluations racing a Close still
// finish correctly (writes after the flush are durable on their own; only
// the directory-rename barrier is repeated by a later Close or process).
func (s *Session) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.FlushCache() })
	return s.closeErr
}

// Run compiles and simulates one program under the session's plan and
// options (uncached: arbitrary programs have no stable identity).
func (s *Session) Run(ctx context.Context, p *dhdl.Program) (*sim.Result, *dhdl.State, error) {
	m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: s.params, Faults: s.plan})
	if err != nil {
		return nil, nil, err
	}
	opts := s.simOpts
	opts.Recovery = true
	return sim.Simulate(ctx, m, opts)
}

// planKey canonicalises a fault plan for cache keys. Plans are deterministic
// functions of (Spec, arch params) and params are keyed separately, so the
// spec alone identifies the plan.
func planKey(p *fault.Plan) string {
	if p == nil {
		return "no-faults"
	}
	return fmt.Sprintf("%+v", p.Spec)
}

// optsKey canonicalises simulator options for cache keys. The Recorder is
// excluded, since Profile, which arms one, bypasses the cache, and so is
// Recovery, which runBenchmark always sets.
func optsKey(o sim.Options) string {
	return fmt.Sprintf("cw=%d nbuf=%t max=%d", o.CoalesceWindow, o.DisableNBuffer, o.MaxCycles)
}

// freshInstance returns a private copy of a registry benchmark. Benchmarks
// are stateful — Build records the golden reference Check reads — so one
// instance must never serve two in-flight jobs; every evaluation gets its
// own. Caller-defined benchmarks outside the registry are used as-is (their
// callers own the sharing discipline).
func freshInstance(b workloads.Benchmark) workloads.Benchmark {
	if nb, err := workloads.ByName(b.Name()); err == nil {
		return nb
	}
	return b
}

// evaluate is the cached benchmark evaluation every suite-level method funnels
// through: one compile+simulate per distinct (benchmark, params, plan, opts)
// point per session. The benchmark is re-instantiated inside the compute
// so parallel jobs share no mutable state. The compute runs under the
// session's job policy (deadline + transient retries), takes its
// functional result from memo (nil: computes it; see runBenchmark), and
// its result persists to the disk tier when one is attached.
func (s *Session) evaluate(ctx context.Context, b workloads.Benchmark, plan *fault.Plan, opts sim.Options, memo *exec.Cache) (*BenchResult, error) {
	b = freshInstance(b)
	k := exec.NewKey("core/bench", b.Name(), s.paramsKey, planKey(plan), optsKey(opts))
	return cached(ctx, s.engine.Cache(), k, "cache", func() (*BenchResult, error) {
		var r *BenchResult
		err := s.engine.RunJob(ctx, b.Name(), func(ctx context.Context) error {
			var rerr error
			r, rerr = runBenchmark(ctx, s.params, b, plan, opts, memo)
			return rerr
		})
		return r, err
	})
}

// cached is exec.CachedJSON with span attribution: a call that computes
// the value leaves the story to the spans compute records, and one whose
// value came from c — a hit, the disk tier, or a wait on another caller's
// computation — records one span, name, over the whole call.
func cached[T any](ctx context.Context, c *exec.Cache, k exec.Key, name string, compute func() (T, error)) (T, error) {
	computed := false
	t0 := time.Now()
	v, err := exec.CachedJSON(ctx, c, k, func() (T, error) {
		computed = true
		return compute()
	})
	if !computed {
		metrics.Add(ctx, name, t0)
	}
	return v, err
}

// RunBenchmark evaluates one Table 4 benchmark under the session's plan and
// options, through the cache. A benchmark is known by its name: one whose
// name the registry holds runs, and is cached, as the registry's default
// instance, so a GEMM with a larger N returns the default GEMM's result.
func (s *Session) RunBenchmark(ctx context.Context, b workloads.Benchmark) (*BenchResult, error) {
	return s.evaluate(ctx, b, s.plan, s.simOpts, nil)
}

// resolveBenches maps names to benchmarks (all of Table 4 when empty).
func resolveBenches(names []string) ([]workloads.Benchmark, error) {
	if len(names) == 0 {
		return workloads.All(), nil
	}
	var out []workloads.Benchmark
	for _, n := range names {
		b, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// Table7 runs all thirteen benchmarks across the engine's workers and
// returns their rows in paper order regardless of completion order.
func (s *Session) Table7(ctx context.Context) ([]*BenchResult, error) {
	benches := workloads.All()
	rows := make([]*BenchResult, len(benches))
	err := s.engine.Pool().Map(ctx, len(benches), func(ctx context.Context, i int) error {
		r, err := s.evaluate(ctx, benches[i], s.plan, s.simOpts, nil)
		if err != nil {
			return err
		}
		rows[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Bench measures simulator throughput for the named benchmarks (all of
// Table 4 when names is empty) across the engine's workers. Cycles are
// deterministic; SimWallSeconds / CyclesPerSec are host measurements and
// vary run to run (zero them before diffing outputs).
func (s *Session) Bench(ctx context.Context, names []string) ([]BenchSim, error) {
	benches, err := resolveBenches(names)
	if err != nil {
		return nil, err
	}
	out := make([]BenchSim, len(benches))
	err = s.engine.Pool().Map(ctx, len(benches), func(ctx context.Context, i int) error {
		r, err := s.evaluate(ctx, benches[i], s.plan, s.simOpts, nil)
		if err != nil {
			return err
		}
		bs := BenchSim{Benchmark: r.Name, Cycles: r.Cycles, SimWallSeconds: r.SimWallSec}
		if bs.SimWallSeconds > 0 {
			bs.CyclesPerSec = float64(bs.Cycles) / bs.SimWallSeconds
		}
		out[i] = bs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Profile runs one benchmark with the observability subsystem armed.
// Never served from the design-point cache (the collector is a side
// effect), and single-threaded per call, but safe to invoke from parallel
// jobs. Its functional result comes from the session's memo: the first
// profile of a benchmark builds, interprets and checks it and keeps the
// log, and every later one (of any caller in the session) replays that
// log. The evaluation records under a "profile" span, which the result
// keeps.
func (s *Session) Profile(ctx context.Context, b workloads.Benchmark) (*ProfileResult, error) {
	// The collector is private to this call, and the benchmark instance
	// is fresh like every other run's.
	b = freshInstance(b)
	col := trace.NewCollector()
	opts := s.simOpts
	opts.Recorder = col
	ctx, span := metrics.Start(ctx, "profile")
	r, err := runBenchmark(ctx, s.params, b, s.plan, opts, s.memo)
	span.EndWith(b.Name(), nil, err)
	if err != nil {
		return nil, err
	}
	rep := col.Report()
	rep.Benchmark = b.Name()
	return &ProfileResult{Bench: r, Report: rep, Pattern: col.PatternReport(b.Name()),
		Spans: span.Snapshot(), Collector: col}, nil
}

// Explain reports whether a benchmark fits the session's fabric under its
// fault plan, in source-level terms — the backend of `plasticine explain`.
// A canceled ctx yields an error wrapping ctx.Err(), never a no-fit report.
func (s *Session) Explain(ctx context.Context, b workloads.Benchmark) (*compiler.Explanation, error) {
	_, span := metrics.Start(ctx, "build")
	p, err := b.Program()
	span.EndWith("", nil, err)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", b.Name(), err)
	}
	return compiler.Explain(ctx, p, s.params, s.plan)
}

// Resilience sweeps fault fractions for one benchmark, fanning the points
// across the engine's workers. The fraction-0 point is always included
// first and is the slowdown baseline; infeasible points (the program no
// longer fits the healthy fabric) are reported, not treated as errors.
// The base spec's memory-fault surface (latency spikes, transient retries)
// applies at every fraction, including the baseline, so the sweep isolates
// the cost of the disabled tiles; its own tile counts and timed events must
// be zero — the sweep owns those. The baseline is part of the same fan-out;
// slowdowns are folded afterwards in fraction order, so the rows are
// identical at any worker count.
func (s *Session) Resilience(ctx context.Context, b workloads.Benchmark, base fault.Spec, fracs []float64) ([]ResilienceRow, error) {
	if base.PCUs != 0 || base.PMUs != 0 || base.Switches != 0 || len(base.Events) != 0 {
		return nil, fmt.Errorf("core: resilience: base spec must not disable tiles or schedule events")
	}
	if len(fracs) == 0 || fracs[0] != 0 {
		fracs = append([]float64{0}, fracs...)
	}
	rows := make([]ResilienceRow, len(fracs))
	err := s.engine.Pool().Map(ctx, len(fracs), func(ctx context.Context, i int) error {
		row, err := s.resiliencePoint(ctx, b, base, fracs[i])
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Slowdown baseline: the first feasible row (fraction 0 in practice),
	// applied in fraction order after the parallel phase.
	var baseCycles int64
	for i := range rows {
		if !rows[i].Feasible {
			continue
		}
		if baseCycles == 0 {
			baseCycles = rows[i].Cycles
		}
		if baseCycles > 0 {
			rows[i].Slowdown = float64(rows[i].Cycles) / float64(baseCycles)
		}
	}
	return rows, nil
}

// resiliencePoint evaluates one fraction of the sweep through the cache.
func (s *Session) resiliencePoint(ctx context.Context, b workloads.Benchmark, base fault.Spec, frac float64) (ResilienceRow, error) {
	row := ResilienceRow{
		Fraction: frac,
		PCUsDown: int(frac * float64(s.params.NumPCUs())),
		PMUsDown: int(frac * float64(s.params.NumPMUs())),
	}
	spec := base
	spec.PCUs, spec.PMUs = row.PCUsDown, row.PMUsDown
	var plan *fault.Plan
	if !spec.Zero() {
		var err error
		plan, err = fault.NewPlan(spec, s.params)
		if err != nil {
			return row, fmt.Errorf("core: resilience at %.0f%%: %w", 100*frac, err)
		}
	}
	r, err := s.evaluate(ctx, b, plan, sim.Options{}, s.memo)
	switch {
	case err == nil:
		row.Feasible = true
		row.Cycles = r.Cycles
	case isInfeasible(err):
		row.Reason = err.Error()
	default:
		return row, fmt.Errorf("core: resilience at %.0f%%: %w", 100*frac, err)
	}
	return row, nil
}

// Recovery runs one benchmark under a timed fault schedule twice — baseline
// with events stripped, then surviving them — as two parallel jobs, and
// decomposes the difference.
func (s *Session) Recovery(ctx context.Context, b workloads.Benchmark, spec fault.Spec) (*RecoveryReport, error) {
	if len(spec.Events) == 0 {
		return nil, fmt.Errorf("core: recovery: spec schedules no timed events")
	}
	baseSpec := spec
	baseSpec.Events = nil
	results := make([]*BenchResult, 2)
	err := s.engine.Pool().Map(ctx, 2, func(ctx context.Context, i int) error {
		sp := spec
		label := "recovery"
		if i == 0 {
			sp, label = baseSpec, "recovery baseline"
		}
		var plan *fault.Plan
		if !sp.Zero() {
			var err error
			plan, err = fault.NewPlan(sp, s.params)
			if err != nil {
				return fmt.Errorf("core: %s: %w", label, err)
			}
		}
		r, err := s.evaluate(ctx, b, plan, sim.Options{}, s.memo)
		if err != nil {
			return fmt.Errorf("core: %s: %w", label, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	base, r := results[0], results[1]
	rep := &RecoveryReport{
		Name:           b.Name(),
		Spec:           spec,
		BaselineCycles: base.Cycles,
		Cycles:         r.Cycles,
	}
	if r.Recovery != nil {
		rep.Events = r.Recovery.Events
		rep.DrainCycles = r.Recovery.DrainCycles
		rep.ReconfigCycles = r.Recovery.ReconfigCycles
		rep.LostBursts = r.Recovery.LostBursts
	}
	if re := rep.Cycles - rep.BaselineCycles - rep.DrainCycles - rep.ReconfigCycles; re > 0 {
		rep.ReExecCycles = re
	}
	return rep, nil
}

// sweep lazily builds the shared DSE driver: benchmark virtual units are
// allocated exactly once per session (hoisted out of every sweep entry
// point) and all sweeps share the session's pool and cache.
func (s *Session) sweep() (*dse.Sweep, error) {
	s.dseOnce.Do(func() {
		benches, err := dse.LoadBenches()
		if err != nil {
			s.dseLoadErr = err
			return
		}
		s.dseSweep = dse.NewSweep(benches, s.params.Chip, s.engine)
		s.dseSweep.SetMetrics(s.metricsReg.Load())
	})
	return s.dseSweep, s.dseLoadErr
}

// UseMetrics installs an instrumentation registry on the session: the
// tuner and the DSE driver record generation timing and point counters
// into it, Engine() counters become scrapeable by whoever owns the
// registry, and the simulator's event-core instruments (queue depth,
// events per cycle) are armed process-wide. Call before serving traffic —
// the lazily-built DSE driver captures the registry at first use. A nil
// registry uninstalls.
func (s *Session) UseMetrics(r *metrics.Registry) {
	s.metricsReg.Store(r)
	sim.UseMetrics(r)
}

// Figure7 computes one Figure 7 panel (a-f) through the shared sweep.
func (s *Session) Figure7(ctx context.Context, panelID string) (*dse.Panel, error) {
	sw, err := s.sweep()
	if err != nil {
		return nil, err
	}
	return sw.Figure7(ctx, panelID)
}

// Table3 runs the parameter-selection sweep through the shared sweep.
func (s *Session) Table3(ctx context.Context) ([]dse.Table3Row, error) {
	sw, err := s.sweep()
	if err != nil {
		return nil, err
	}
	return sw.Table3(ctx)
}

// Table6 computes the generalization ladder through the shared sweep.
func (s *Session) Table6(ctx context.Context) ([]dse.Ladder, error) {
	sw, err := s.sweep()
	if err != nil {
		return nil, err
	}
	return sw.Table6(ctx, s.params)
}

// RatioStudy evaluates PMU:PCU provisioning through the shared sweep.
func (s *Session) RatioStudy(ctx context.Context) ([]dse.RatioRow, error) {
	sw, err := s.sweep()
	if err != nil {
		return nil, err
	}
	return sw.RatioStudy(ctx, s.params)
}
