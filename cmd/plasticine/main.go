// Command plasticine regenerates the paper's evaluation artefacts from the
// command line:
//
//	plasticine info              architecture summary, area, power envelope
//	plasticine list              the thirteen Table 4 benchmarks
//	plasticine run <benchmark>   compile + simulate one benchmark
//	plasticine profile -bench b  cycle-level profile with stall attribution
//	plasticine bench [-json]     simulator throughput (BENCH_sim.json)
//	plasticine resilience <b>    degradation sweep under injected faults
//	plasticine table3            parameter selection (Section 3.7)
//	plasticine table5            area breakdown
//	plasticine table6            generalization area-overhead ladder
//	plasticine table7            full evaluation vs the FPGA baseline
//	plasticine fig7 [-panel a]   design-space sweep panels a-f
//	plasticine tune              Pareto-front auto-tuner over the design space
//
// Every subcommand is a thin shell over core.Session, the library facade
// that owns the worker pool and the design-point cache. Suite commands take
// -workers N to fan evaluation across cores; outputs on stdout are
// byte-identical at any worker count (timing and cache summaries go to
// stderr).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/core"
	"plasticine/internal/dse"
	"plasticine/internal/exec"
	"plasticine/internal/fault"
	"plasticine/internal/sim"
	"plasticine/internal/stats"
	"plasticine/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C cancels the context; in-flight compiles stop at the next pass
	// boundary and simulations at the next ctx-check window.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = cmdInfo()
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(ctx, args)
	case "profile":
		err = cmdProfile(ctx, args)
	case "explain":
		err = cmdExplain(ctx, args)
	case "bench":
		err = cmdBench(ctx, args)
	case "resilience":
		err = cmdResilience(ctx, args)
	case "recovery":
		err = cmdRecovery(ctx, args)
	case "table3":
		err = cmdTable3(ctx, args)
	case "table5":
		fmt.Print(core.FormatTable5(arch.Area(arch.Default())))
	case "table6":
		err = cmdTable6(ctx, args)
	case "table7":
		err = cmdTable7(ctx, args)
	case "fig7":
		err = cmdFig7(ctx, args)
	case "bitstream":
		err = cmdBitstream(ctx, args)
	case "ratios":
		err = cmdRatios(ctx, args)
	case "tune":
		err = cmdTune(ctx, args)
	case "serve":
		err = cmdServe(ctx, args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "plasticine: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plasticine:", err)
		// SIGINT/SIGTERM cancel ctx; the deferred summaries above have
		// already flushed the persistent cache tier and printed partial
		// stats, so completed design points survive for a resumed run.
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			fmt.Fprintln(os.Stderr, "plasticine: interrupted; completed design points were flushed to the cache tier")
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: plasticine <command>

commands:
  info              architecture parameters, area and power envelope
  list              available benchmarks (Table 4)
  run <benchmark> [-faults spec] [-events list] [-budget cycles]
                    compile and simulate one benchmark vs the FPGA model,
                    optionally under an injected fault plan; -events adds
                    timed mid-run faults (kill-pcu@N,kill-pmu@N,kill-sw@N,
                    kill-chan@N) survived via drain/repair/stall/resume
  profile -bench <name> [-by-pattern] [-passes] [-events list] [-faults spec]
                    [-trace path] [-counters path]
                    cycle-level profile: per-unit busy/stall/idle accounting
                    with stall causes, DRAM channel and link utilization and
                    the named bottleneck; writes a Chrome trace-event JSON
                    (chrome://tracing, with the host-time spans on their
                    own track) and a flat counters JSON. -by-pattern rolls
                    the profile up by source pattern node instead of
                    physical unit (rows sum exactly to the makespan);
                    -passes prints the host-time span tree with the
                    compiler's passes
  explain -bench <name> [-cols N] [-rows N] [-faults spec] [-json]
                    source-level fit report: does the benchmark fit the
                    fabric, and if not, which pattern nodes demand the
                    resource that ran out (never panics; exits 0 with a
                    structured report either way)
  bench [-json] [-out path] [suite flags] [benchmark ...]
                    simulator throughput (simulated cycles vs host wall
                    time); -json writes BENCH_sim.json (schema in
                    EXPERIMENTS.md), -out overrides the output path
  resilience <benchmark> [-seed N] [-spike P] [-retry P] [suite flags]
                    makespan degradation vs fraction of disabled tiles,
                    optionally on a memory system with latency spikes
                    and transient burst failures
  recovery <benchmark> [-events list] [-seed N]
                    mid-run fault recovery overhead: drain, repair, a
                    reconfiguration stall in place, resume — vs the
                    event-free run
  table3 [suite flags]
                    parameter selection sweep (Section 3.7)
  table5            area breakdown (Table 5)
  table6 [suite flags]
                    generalization overhead ladder (Table 6)
  table7 [-format table|csv|json] [suite flags]
                    full evaluation (Table 7)
  fig7 [-panel a] [suite flags]
                    design-space sweep panel a-f, or "all"
  bitstream <benchmark> [-json]
                    emit the compiled configuration (assembly or JSON)
  ratios [suite flags]
                    PMU:PCU provisioning study (Section 3.7)
  tune [-mix m] [-max-area mm2] [-max-power W] [-budget N] [-pop N]
       [-seed N] [-max-generations N] [-shard i/N] [-shard-wait d]
       [-json] [suite flags]
                    Pareto-front auto-tuner: search the architecture design
                    space for the given workload mix, minimising weighted
                    cycles, area and power under analytical constraints;
                    deterministic per -seed at any -workers, resumable from
                    its -cache-dir design points after a kill, shardable
                    across processes with -shard
  serve [-addr host:port] [-queue N] [-tenant-rate R] [-drain d] [suite flags]
                    multi-tenant evaluation service: HTTP/JSON endpoints
                    (/v1/run, /v1/compile, /v1/profile, /v1/explain,
                    /v1/sweep, /v1/tune, /statsz) over one shared session, with
                    per-tenant quotas, weighted-fair dispatch, load shedding
                    (429 + Retry-After, never 5xx under overload) and a
                    graceful SIGTERM drain that flushes the cache tier

suite flags (shared by bench, resilience, recovery and the sweeps):
  -workers N        fan evaluation across N goroutines (0 = all CPU cores)
                    backed by a shared design-point cache; stdout is
                    byte-identical at any worker count
  -cache-dir path   persist design-point results on disk: a killed or
                    interrupted sweep rerun with the same directory resumes
                    from its completed points (corrupt entries are
                    quarantined and recomputed, never fatal)
  -cache-mb N       size cap for -cache-dir, LRU-evicted (0 = 256)
  -job-timeout d    per-job deadline, e.g. 30s (0 = none)
  -job-retries N    extra attempts for transiently-failing jobs; retries
                    are accounted on stderr`)
}

// suiteFlags are the flags every suite subcommand shares: worker count,
// the disk-backed cache tier, and the per-job deadline/retry policy.
type suiteFlags struct {
	workers    *int
	cacheDir   *string
	cacheMB    *int
	jobTimeout *time.Duration
	jobRetries *int
}

// addSuiteFlags registers the shared suite flags on a subcommand.
func addSuiteFlags(fs *flag.FlagSet) *suiteFlags {
	return &suiteFlags{
		workers:    fs.Int("workers", 1, "parallel evaluation workers (0 = all CPU cores)"),
		cacheDir:   fs.String("cache-dir", "", "disk-backed design-point cache directory; persists across runs, so an interrupted sweep resumes (empty = memory only)"),
		cacheMB:    fs.Int("cache-mb", 0, "persistent cache size cap in MB (0 = 256)"),
		jobTimeout: fs.Duration("job-timeout", 0, "per-job deadline; timed-out jobs are retried under -job-retries (0 = none)"),
		jobRetries: fs.Int("job-retries", 0, "extra attempts for transiently-failing jobs (retries are reported on stderr)"),
	}
}

// session builds the core.Session the flags describe. Retry accounting goes
// to stderr, keeping stdout byte-identical across runs and worker counts.
func (f *suiteFlags) session(extra ...core.SessionOption) (*core.Session, error) {
	opts := []core.SessionOption{core.WithWorkers(*f.workers)}
	if *f.cacheDir != "" {
		d, err := exec.OpenDiskCache(*f.cacheDir, int64(*f.cacheMB)<<20)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithDiskCache(d))
	}
	if *f.jobTimeout > 0 || *f.jobRetries > 0 {
		opts = append(opts, core.WithJobPolicy(exec.JobPolicy{
			Timeout: *f.jobTimeout,
			Retries: *f.jobRetries,
			Backoff: 100 * time.Millisecond,
			OnRetry: func(attempt int, err error) {
				fmt.Fprintf(os.Stderr, "plasticine: retry %d after transient error: %v\n", attempt, err)
			},
		}))
	}
	return core.NewSession(append(opts, extra...)...), nil
}

func cmdInfo() error {
	p := arch.Default()
	fmt.Println(p.String())
	fmt.Printf("peak %.1f single-precision TFLOPS, %.1f GB/s DRAM, max power %.1f W\n",
		p.PeakFLOPS()/1e12, p.PeakDRAMBandwidth()/1e9, arch.MaxPower(p))
	a := arch.Area(p)
	fmt.Printf("area %.1f mm^2 at 28 nm (PCU %.3f, PMU %.3f per unit)\n",
		a.ChipTotal(), a.PCUTotal(), a.PMUTotal())
	return nil
}

func cmdList() error {
	t := stats.New("Table 4 benchmarks", "Name", "Scale")
	for _, b := range workloads.All() {
		t.Add(b.Name(), b.ScaleNote())
	}
	fmt.Print(t.String())
	return nil
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	faultSpec := fs.String("faults", "", "fault plan, e.g. seed=1,pcu=4,pmu=2,sw=1,chan=1,retry=0.001")
	events := fs.String("events", "", "timed mid-run faults, e.g. kill-pcu@5000,kill-chan@12000")
	budget := fs.Int64("budget", 0, "abort via the watchdog after this many cycles (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: plasticine run <benchmark> [-faults spec] [-events list] [-budget cycles]")
	}
	b, err := workloads.ByName(fs.Arg(0))
	if err != nil {
		return err
	}
	plan, err := buildPlan(*faultSpec, *events, arch.Default())
	if err != nil {
		return err
	}
	if plan != nil {
		fmt.Printf("fault plan: %s\n", plan)
	}
	sess := core.NewSession(core.WithFaults(plan),
		core.WithSimOptions(sim.Options{MaxCycles: *budget}))
	r, err := sess.RunBenchmark(ctx, b)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%s)\n", r.Name, b.ScaleNote())
	fmt.Printf("  plasticine: %d cycles = %.1f us at 1 GHz, %.1f W\n", r.Cycles, r.TimeSec*1e6, r.PowerW)
	fmt.Printf("  utilization: PCU %.1f%%  PMU %.1f%%  AG %.1f%%  FU %.1f%%\n",
		100*r.Util.PCUFrac, 100*r.Util.PMUFrac, 100*r.Util.AGFrac, 100*r.Util.FUFrac)
	fmt.Printf("  DRAM: %.2f MB read, %.2f MB written\n", r.DRAMReadMB, r.DRAMWriteMB)
	fmt.Printf("  fpga baseline: %.1f us, %.1f W\n", r.FPGATimeSec*1e6, r.FPGAPowerW)
	fmt.Printf("  speedup %.2fx (paper %.1fx), perf/W %.2fx (paper %.1fx)\n",
		r.Speedup, r.PaperSpeedup, r.PerfPerWatt, r.PaperPerfW)
	if r.Retries > 0 || r.RetriesExhausted > 0 || r.LatencySpikes > 0 {
		fmt.Printf("  faults: %d burst retries (%d exhausted), %d latency spikes\n",
			r.Retries, r.RetriesExhausted, r.LatencySpikes)
	}
	if r.Recovery != nil {
		fmt.Printf("  recovery: %d event(s) survived, %d drain + %d reconfig stall cycles, %d bursts reissued\n",
			len(r.Recovery.Events), r.Recovery.DrainCycles, r.Recovery.ReconfigCycles, r.Recovery.LostBursts)
		for _, e := range r.Recovery.Events {
			fmt.Printf("    %s at cycle %d: drain %d, moved %d PCU / %d PMU, %d rerouted, reconfig %d\n",
				e.Event, e.At, e.DrainCycles, e.MovedPCUs, e.MovedPMUs, e.ReroutedEdges, e.ReconfigCycles)
		}
	}
	return nil
}

// buildPlan parses -faults and -events flags into a fault plan; both empty
// yields a nil (pristine) plan. -events may only carry timed kill terms.
func buildPlan(faultSpec, events string, params arch.Params) (*fault.Plan, error) {
	if faultSpec == "" && events == "" {
		return nil, nil
	}
	spec, err := fault.ParseSpec(faultSpec)
	if err != nil {
		return nil, err
	}
	evSpec, err := fault.ParseSpec(events)
	if err != nil {
		return nil, err
	}
	if evSpec.PCUs != 0 || evSpec.PMUs != 0 || evSpec.Switches != 0 || evSpec.Chans != 0 ||
		evSpec.SpikeProb != 0 || evSpec.TransientProb != 0 {
		return nil, fmt.Errorf("-events takes only kill-<kind>@<cycle> terms; put static faults in -faults")
	}
	spec.Events = append(spec.Events, evSpec.Events...)
	return fault.NewPlan(spec, params)
}

func cmdProfile(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark to profile (see plasticine list)")
	faultSpec := fs.String("faults", "", "fault plan, e.g. seed=1,pcu=4,retry=0.001")
	events := fs.String("events", "", "timed mid-run faults, e.g. kill-pcu@5000,kill-chan@12000")
	tracePath := fs.String("trace", "", "Chrome trace-event JSON output path (default <bench>_trace.json; \"\" after -bench keeps the default, \"none\" disables)")
	countersPath := fs.String("counters", "", "flat counters JSON output path (default <bench>_counters.json; \"none\" disables)")
	byPattern := fs.Bool("by-pattern", false, "roll the profile up by source pattern node (rows sum exactly to the makespan)")
	showPasses := fs.Bool("passes", false, "print the host-time span tree: build, compile and its passes, sim (with any repair), check (wall time and per-pass statistics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := *bench
	if name == "" && fs.NArg() == 1 {
		name = fs.Arg(0) // positional form: plasticine profile <benchmark>
	}
	if name == "" || (fs.NArg() > 0 && *bench != "") || fs.NArg() > 1 {
		return fmt.Errorf("usage: plasticine profile -bench <name> [-by-pattern] [-passes] [-events list] [-faults spec] [-trace path] [-counters path]")
	}
	b, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	plan, err := buildPlan(*faultSpec, *events, arch.Default())
	if err != nil {
		return err
	}
	if plan != nil {
		fmt.Printf("fault plan: %s\n", plan)
	}
	sess := core.NewSession(core.WithFaults(plan))
	p, err := sess.Profile(ctx, b)
	if err != nil {
		return err
	}
	if *byPattern {
		fmt.Print(core.FormatPatternProfile(p.Pattern))
	} else {
		fmt.Print(core.FormatProfile(p.Report))
	}
	if *showPasses {
		fmt.Print(compiler.FormatPasses(p.Spans))
	}
	write := func(path, fallback string, gen func() ([]byte, error), what string) error {
		if path == "none" {
			return nil
		}
		if path == "" {
			path = fallback
		}
		data, err := gen()
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s to %s (%d bytes)\n", what, path, len(data))
		return nil
	}
	if err := write(*tracePath, name+"_trace.json", p.ChromeTrace, "chrome trace"); err != nil {
		return err
	}
	return write(*countersPath, name+"_counters.json", p.CountersJSON, "counters")
}

func cmdExplain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark to explain (see plasticine list)")
	cols := fs.Int("cols", 0, "override fabric columns (0 = paper default); shrink to probe fit limits")
	rows := fs.Int("rows", 0, "override fabric rows (0 = paper default)")
	faultSpec := fs.String("faults", "", "fault plan, e.g. seed=1,pcu=40,pmu=20")
	asJSON := fs.Bool("json", false, "emit the structured report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := *bench
	if name == "" && fs.NArg() == 1 {
		name = fs.Arg(0) // positional form: plasticine explain <benchmark>
	}
	if name == "" || (fs.NArg() > 0 && *bench != "") || fs.NArg() > 1 {
		return fmt.Errorf("usage: plasticine explain -bench <name> [-cols N] [-rows N] [-faults spec] [-json]")
	}
	b, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	params := arch.Default()
	if *cols > 0 {
		params.Chip.Cols = *cols
	}
	if *rows > 0 {
		params.Chip.Rows = *rows
	}
	plan, err := buildPlan(*faultSpec, "", params)
	if err != nil {
		return err
	}
	sess := core.NewSession(core.WithArch(params), core.WithFaults(plan))
	ex, err := sess.Explain(ctx, b)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(ex, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Print(ex.String())
	// A program that does not fit is the expected answer, not a failure:
	// exit 0 either way so scripts can parse the report.
	return nil
}

func cmdBench(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "also write BENCH_sim.json (schema in EXPERIMENTS.md)")
	outPath := fs.String("out", "", "output path for the JSON document (default BENCH_sim.json; implies -json)")
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("bench", sess, t0)
	results, err := sess.Bench(ctx, fs.Args())
	if err != nil {
		return err
	}
	fmt.Print(core.FormatBench(results))
	if *asJSON || *outPath != "" {
		path := *outPath
		if path == "" {
			path = "BENCH_sim.json"
		}
		data, err := core.BenchJSON(results)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
	return nil
}

func cmdResilience(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("resilience", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "fault-plan seed (same seed, same disabled tiles)")
	spike := fs.Float64("spike", 0, "per-burst DRAM latency-spike probability in [0,1]")
	retry := fs.Float64("retry", 0, "per-burst transient-failure probability in [0,1]")
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: plasticine resilience <benchmark> [-seed N] [-spike P] [-retry P] [-workers N]")
	}
	if *spike < 0 || *spike > 1 {
		return fmt.Errorf("usage: plasticine resilience: -spike %v is not a probability in [0,1]", *spike)
	}
	if *retry < 0 || *retry > 1 {
		return fmt.Errorf("usage: plasticine resilience: -retry %v is not a probability in [0,1]", *retry)
	}
	b, err := workloads.ByName(fs.Arg(0))
	if err != nil {
		return err
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("resilience", sess, t0)
	base := fault.Spec{Seed: *seed, SpikeProb: *spike, TransientProb: *retry}
	rows, err := sess.Resilience(ctx, b, base, core.DefaultResilienceFractions())
	if err != nil {
		return err
	}
	fmt.Print(core.FormatResilience(b.Name(), *seed, rows))
	return nil
}

func cmdRecovery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("recovery", flag.ContinueOnError)
	events := fs.String("events", "", "timed faults to survive (default kill-pcu@1000,kill-pmu@2500,kill-chan@4000)")
	seed := fs.Int64("seed", 1, "victim-draw seed (same seed, same victims)")
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: plasticine recovery <benchmark> [-events list] [-seed N]")
	}
	b, err := workloads.ByName(fs.Arg(0))
	if err != nil {
		return err
	}
	spec := fault.Spec{Seed: *seed, Events: core.DefaultRecoveryEvents()}
	if *events != "" {
		parsed, err := fault.ParseSpec(*events)
		if err != nil {
			return err
		}
		if len(parsed.Events) == 0 {
			return fmt.Errorf("usage: plasticine recovery: -events wants kill-<kind>@<cycle> terms, got %q", *events)
		}
		spec.Events = parsed.Events
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("recovery", sess, t0)
	rep, err := sess.Recovery(ctx, b, spec)
	if err != nil {
		return err
	}
	fmt.Print(core.FormatRecovery(rep))
	return nil
}

func cmdBitstream(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bitstream", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit JSON instead of the assembly listing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: plasticine bitstream <benchmark> [-json]")
	}
	b, err := workloads.ByName(fs.Arg(0))
	if err != nil {
		return err
	}
	p, err := b.Program()
	if err != nil {
		return err
	}
	m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: arch.Default()})
	if err != nil {
		return err
	}
	bs := compiler.GenerateBitstream(m)
	if *asJSON {
		return bs.Encode(os.Stdout)
	}
	fmt.Print(bs.Assembly())
	return nil
}

func cmdRatios(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ratios", flag.ContinueOnError)
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("ratios", sess, t0)
	rows, err := sess.RatioStudy(ctx)
	if err != nil {
		return err
	}
	fmt.Print(dse.FormatRatios(rows))
	return nil
}

func cmdTable3(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table3", flag.ContinueOnError)
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("table3", sess, t0)
	rows, err := sess.Table3(ctx)
	if err != nil {
		return err
	}
	fmt.Print(dse.FormatTable3(rows))
	return nil
}

func cmdTable6(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table6", flag.ContinueOnError)
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("table6", sess, t0)
	rows, err := sess.Table6(ctx)
	if err != nil {
		return err
	}
	fmt.Print(dse.FormatTable6(rows))
	return nil
}

func cmdTable7(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table7", flag.ContinueOnError)
	format := fs.String("format", "table", "output format: table, csv, json")
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("table7", sess, t0)
	rows, err := sess.Table7(ctx)
	if err != nil {
		return err
	}
	switch *format {
	case "table":
		fmt.Print(core.FormatTable7(rows))
	case "csv":
		fmt.Print(core.Table7CSV(rows))
	case "json":
		b, err := core.Table7JSON(rows)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

func cmdFig7(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ContinueOnError)
	panel := fs.String("panel", "a", "panel to compute: a-f or all")
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("fig7", sess, t0)
	panels := []string{*panel}
	if *panel == "all" {
		panels = []string{"a", "b", "c", "d", "e", "f"}
	}
	for _, id := range panels {
		p, err := sess.Figure7(ctx, id)
		if err != nil {
			return err
		}
		fmt.Printf("panel %s:\n%s\n", id, p.Format())
	}
	return nil
}
