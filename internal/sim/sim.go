package sim

import (
	"context"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/dram"
	"plasticine/internal/metrics"
	"plasticine/internal/trace"
)

// Result summarises one simulated program run.
type Result struct {
	Cycles  int64
	Seconds float64 // at the configured fabric clock

	DRAM dram.Stats
	Util compiler.Utilization

	// PowerW is modelled chip power during the run.
	PowerW float64

	// Activities and barriers in the timed graph (diagnostics).
	Activities int

	// Recovery is the per-event overhead breakdown when the run survived
	// timed mid-run faults (nil on uninterrupted runs).
	Recovery *RecoveryStats

	// WallTime is host time spent resolving the timed schedule (the engine
	// proper — excludes the functional phase and the graph build, which are
	// execution, not cycle-level simulation).
	WallTime time.Duration
}

// EffectiveBandwidth returns achieved DRAM bandwidth in bytes/second.
func (r *Result) EffectiveBandwidth() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.DRAM.BytesRead+r.DRAM.BytesWritten) / r.Seconds
}

// Options tune simulator behaviour for ablation studies.
type Options struct {
	// CoalesceWindow sets the coalescing cache size in bursts; 1 disables
	// address coalescing (every sparse access issues its own burst).
	// 0 means the default (64).
	CoalesceWindow int
	// DisableNBuffer forces every scratchpad to single buffering,
	// serialising coarse-grained pipelines (Section 3.5 ablation).
	DisableNBuffer bool
	// MaxCycles aborts the run via the watchdog once the simulated clock
	// passes this budget (0 = unlimited).
	MaxCycles int64

	// Recorder collects the run's observability events (per-unit slices
	// with stall attribution, link traffic, DRAM channel counters). Nil
	// disables tracing at zero cost; see internal/trace.
	Recorder *trace.Collector

	// Recovery survives the mapping's timed mid-run fault events (drain,
	// repair, stall, resume — see the recovery protocol in recovery.go)
	// instead of simulating an event-free run. With no timed
	// events in the plan this is a no-op and the run is bit-identical to a
	// plain one.
	Recovery bool
}

// Simulate runs a compiled program and is the one simulator entry point for
// a caller's own program: the functional phase (Execute) and then the
// timing phase (Replay) on its log. The context bounds both (cancellation
// surfaces as an error wrapping ctx.Err(), from the engine as a
// *WatchdogError whose Cause it is), the mapping carries the architecture
// (its DRAM channel count included) and the fault plan, and Options selects
// everything else — ablations, the cycle budget, tracing and the recovery
// protocol. All of the program's DRAM buffers must be bound to
// collections; the functional results land in those collections and the
// returned state, while the returned Result carries the cycle-level timing.
// Since the run writes the bound collections, a bound program goes through
// Simulate exactly once; to time it again, replay its log (Execute, then
// Replay per mapping).
func Simulate(ctx context.Context, m *compiler.Mapping, opts Options) (*Result, *dhdl.State, error) {
	return simulate(ctx, m, opts, eventLoop)
}

// Replay is the timing phase: it builds the activity graph from a
// functional run's log against m, any mapping of the program the log was
// recorded from (or of a fresh instance of the same benchmark), and
// resolves it on the engine. It writes nothing the log or another replay
// reads, so one log may be replayed many times, concurrently too. Under a
// context span it records the graph build and the engine as "graph" and
// "engine".
func Replay(ctx context.Context, m *compiler.Mapping, log *Log, opts Options) (*Result, error) {
	return replay(ctx, m, log, opts, eventLoop)
}

// simulate is Simulate on an explicit scheduling core. Production passes
// eventLoop; the golden identity tests also pass the cycle-by-cycle
// reference loop, so both cores run the same plain, faulted and recovery
// runs.
func simulate(ctx context.Context, m *compiler.Mapping, opts Options, lp loop) (*Result, *dhdl.State, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	log, st, err := Execute(ctx, m.Prog)
	if err != nil {
		return nil, nil, err
	}
	res, err := replay(ctx, m, log, opts, lp)
	if err != nil {
		return nil, nil, err
	}
	return res, st, nil
}

// replay is Replay on an explicit scheduling core. Every replay is one
// sequence: build the graph and the memory system, survive the plan's
// timed events (none unless opts.Recovery is set), run to the end, observe
// and emit, and build the result.
func replay(ctx context.Context, m *compiler.Mapping, log *Log, opts Options, lp loop) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	_, span := metrics.Start(ctx, "graph")
	eng, err := prepare(ctx, m, log, opts, lp)
	span.EndWith("", nil, err)
	if err != nil {
		return nil, err
	}
	ctx, span = metrics.Start(ctx, "engine")
	res, err := eng.resolveAll(ctx, m, opts)
	span.EndWith("", nil, err)
	return res, err
}

// resolveAll runs a prepared engine to the end of its schedule.
func (eng *engine) resolveAll(ctx context.Context, m *compiler.Mapping, opts Options) (*Result, error) {
	t0 := time.Now()
	eng.ctx = ctx
	var rec *RecoveryStats
	if opts.Recovery {
		var err error
		if rec, err = eng.survive(ctx, m); err != nil {
			return nil, err
		}
	}
	cycles, err := eng.run()
	if err != nil {
		return nil, err
	}
	eng.observeRun(cycles)
	eng.emitTrace(m, recoveryWindows(rec))
	res := buildResult(m, eng, cycles, t0)
	res.Recovery = rec
	return res, nil
}

// prepare builds the timed activity graph from the log and constructs the
// memory system — everything up to (but excluding) advancing the clock.
// It reads the log and m's program and writes neither, so it may run any
// number of times; recovery resumes the engine it built rather than
// building another.
func prepare(ctx context.Context, m *compiler.Mapping, log *Log, opts Options, lp loop) (*engine, error) {
	b := newBuilder(m)
	if opts.CoalesceWindow > 0 {
		b.coalesceWindow = opts.CoalesceWindow
	}
	b.disableNBuffer = opts.DisableNBuffer
	if err := log.replayTo(ctx, m.Prog, b.handle); err != nil {
		return nil, err
	}
	ddr, err := newMemory(m)
	if err != nil {
		return nil, err
	}
	return &engine{acts: b.acts, dram: ddr, units: b.units, rec: opts.Recorder,
		maxCycles: opts.MaxCycles, stallWindow: defaultStallWindow,
		loop: lp, insts: simMetrics.Load()}, nil
}

// newMemory builds the memory system m's chip names, under the DRAM faults
// of m's plan. Its bursts are the builder's: burstBytes each.
func newMemory(m *compiler.Mapping) (*dram.DRAM, error) {
	dcfg := dram.DDR3_1600x4()
	dcfg.Channels = m.Params.Chip.DDRChannels
	ddr := dram.New(dcfg)
	if err := ddr.InjectFaults(m.Faults.DRAMFaults()); err != nil {
		return nil, err
	}
	return ddr, nil
}

// buildResult assembles the Result for a finished engine.
func buildResult(m *compiler.Mapping, e *engine, cycles int64, t0 time.Time) *Result {
	clockHz := float64(m.Params.Chip.ClockMHz) * 1e6
	res := &Result{
		Cycles:     cycles,
		Seconds:    float64(cycles) / clockHz,
		DRAM:       e.dram.Stats(),
		Util:       m.Util,
		Activities: len(e.acts),
		WallTime:   time.Since(t0),
	}
	res.PowerW = arch.Power(m.Params, arch.Activity{
		PCUUtil: m.Util.PCUFrac,
		PMUUtil: m.Util.PMUFrac,
		AGUtil:  m.Util.AGFrac,
		FUUtil:  m.Util.FUFrac,
	})
	return res
}
