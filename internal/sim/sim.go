package sim

import (
	"context"
	"fmt"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/dram"
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
	// proper — excludes the one-off functional trace and graph construction,
	// which are execution, not cycle-level simulation).
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

// Simulate runs a compiled program and is the one simulator entry point: the
// context bounds the run (cancellation surfaces as a *WatchdogError whose
// Cause is ctx.Err()), the mapping carries the architecture (its DRAM channel
// count included) and the fault plan, and Options selects everything else —
// ablations, the cycle budget, tracing and the recovery protocol. All
// of the program's DRAM buffers must be bound to collections; the
// functional results land in those collections and the returned state,
// while the returned Result carries the cycle-level timing.
func Simulate(ctx context.Context, m *compiler.Mapping, opts Options) (*Result, *dhdl.State, error) {
	return simulate(ctx, m, opts, eventLoop)
}

// simulate is Simulate on an explicit scheduling core. Production passes
// eventLoop; the golden identity tests also pass the cycle-by-cycle
// reference loop, so both cores run the same plain, faulted and recovery
// runs. Every run is one sequence: prepare, survive the plan's timed
// events (none unless opts.Recovery is set), run to the end, observe and
// emit, and build the result.
func simulate(ctx context.Context, m *compiler.Mapping, opts Options, lp loop) (*Result, *dhdl.State, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eng, st, err := prepare(ctx, m, opts, lp)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	eng.ctx = ctx
	var rec *RecoveryStats
	if opts.Recovery {
		if rec, err = eng.survive(ctx, m); err != nil {
			return nil, nil, err
		}
	}
	cycles, err := eng.run()
	if err != nil {
		return nil, nil, err
	}
	eng.observeRun(cycles)
	eng.emitTrace(m, recoveryWindows(rec))
	res := buildResult(m, eng, cycles, t0)
	res.Recovery = rec
	return res, st, nil
}

// prepare runs the functional trace, builds the timed activity graph, and
// constructs the memory system — everything up to (but excluding) advancing
// the clock. The trace mutates the program's bound collections in place,
// so prepare must run exactly once per simulation; recovery resumes the
// engine it built rather than re-tracing. The trace polls ctx, so a
// canceled run stops there too, with an error wrapping ctx.Err().
func prepare(ctx context.Context, m *compiler.Mapping, opts Options, lp loop) (*engine, *dhdl.State, error) {
	b := newBuilder(m)
	if opts.CoalesceWindow > 0 {
		b.coalesceWindow = opts.CoalesceWindow
	}
	b.disableNBuffer = opts.DisableNBuffer
	st, err := dhdl.TraceContext(ctx, m.Prog, b.handle)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: functional execution failed: %w", err)
	}
	dcfg := dram.DDR3_1600x4()
	dcfg.Channels = m.Params.Chip.DDRChannels
	ddr := dram.New(dcfg)
	if err := ddr.InjectFaults(m.Faults.DRAMFaults()); err != nil {
		return nil, nil, err
	}
	return &engine{acts: b.acts, dram: ddr, units: b.units, rec: opts.Recorder,
		maxCycles: opts.MaxCycles, stallWindow: defaultStallWindow,
		loop: lp, insts: simMetrics.Load()}, st, nil
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
