// Package core is the public façade of the Plasticine reproduction: it ties
// the programming model, compiler, cycle-level simulator, FPGA baseline and
// the area/power models together, and regenerates the paper's evaluation
// artefacts (Tables 5 and 7).
package core

import (
	"context"
	"encoding/json"
	"fmt"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/exec"
	"plasticine/internal/fault"
	"plasticine/internal/fpga"
	"plasticine/internal/metrics"
	"plasticine/internal/sim"
	"plasticine/internal/stats"
	"plasticine/internal/workloads"
)

// BenchResult is one Table 7 row: Plasticine vs the FPGA baseline.
type BenchResult struct {
	Name string

	// Plasticine side (simulated).
	Cycles      int64
	TimeSec     float64
	PowerW      float64
	Util        compiler.Utilization
	DRAMReadMB  float64
	DRAMWriteMB float64

	// FPGA side (modelled).
	FPGATimeSec float64
	FPGAPowerW  float64

	// Ratios.
	Speedup      float64
	PerfPerWatt  float64
	PaperSpeedup float64
	PaperPerfW   float64

	// Fault-injection observables (zero on pristine runs).
	Retries          int64
	RetriesExhausted int64
	LatencySpikes    int64

	// Recovery is the mid-run fault-survival breakdown (nil unless the
	// fault plan scheduled timed events that fired).
	Recovery *sim.RecoveryStats `json:",omitempty"`

	// SimWallSec is the event engine's host time, sim.Result.WallTime: the
	// timed schedule with the recoveries it survives, not the functional
	// phase or the sim span's graph build (simulator throughput, not a
	// modelled quantity).
	SimWallSec float64 `json:",omitempty"`
}

// runBenchmark executes one Table 4 benchmark end to end on a fabric with
// the given parameters, checks its functional output, and models the FPGA
// baseline on the same instance. Faults degrade timing, never results: the
// functional check must still pass, or the run fails. A plan with timed
// mid-run events goes through the recovery controller (drain, repair,
// stall, resume); without events the flow is bit-identical to the plain
// simulation pipeline. Compilation checks ctx between passes, and the
// interpreter and the engine poll it, so a parallel suite can abandon
// in-flight work when a sibling fails or the user interrupts.
//
// Every caller runs one sequence: compile b.Program(), take the functional
// result (Build, the interpreter and Check; memo.go) from memo, or compute
// it when memo is nil, and replay its log. A design point that does not
// fit therefore pays for no Build and no trace, and errors keep their
// order: the program, compile, Build, the interpreter, the engine, then
// Check.
func runBenchmark(ctx context.Context, params arch.Params, b workloads.Benchmark, plan *fault.Plan, opts sim.Options, memo *exec.Cache) (*BenchResult, error) {
	name := b.Name()
	fail := func(err error) (*BenchResult, error) { return nil, fmt.Errorf("core: %s: %w", name, err) }
	p, err := b.Program()
	if err != nil {
		return fail(err)
	}
	// The compiler records its own compile span, passes below it.
	m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: params, Faults: plan})
	if err != nil {
		return fail(err)
	}
	// A nil memo keeps nothing, so execute runs for this evaluation alone.
	fn, err := cached(ctx, memo, exec.NewKey(name), "memo", func() (*functional, error) {
		return execute(ctx, b)
	})
	if err != nil {
		return fail(err)
	}
	// Nothing here holds the log past the graph build, so the garbage
	// collector may take a log the memo does not keep while the engine runs.
	checkErr := fn.check
	simCtx, span := metrics.Start(ctx, "sim")
	opts.Recovery = true
	res, err := sim.Replay(simCtx, m, fn.log, opts)
	span.EndWith("", nil, err)
	if err != nil {
		return fail(err)
	}
	if checkErr != nil {
		return nil, fmt.Errorf("core: %s: functional check failed: %w", name, checkErr)
	}
	prof := b.Profile()
	w := fpga.Workload{
		Flops:           prof.Flops,
		DenseBytes:      prof.DenseBytes,
		SparseAccesses:  prof.SparseAccesses,
		OpsPerLane:      prof.OpsPerLane,
		HeavyOpsPerLane: prof.HeavyOpsPerLane,
		SeqIters:        prof.SeqIters,
		PipeDepth:       prof.PipeDepth,
		SeqChildren:     prof.SeqChildren,
		LogicUtil:       prof.FPGALogicUtil,
		MemUtil:         prof.FPGAMemUtil,
	}
	baseline := fpga.StratixV()
	fpgaTime := baseline.Runtime(w)
	fpgaPower := baseline.Power(w)
	r := &BenchResult{
		Name:         b.Name(),
		Cycles:       res.Cycles,
		TimeSec:      res.Seconds,
		PowerW:       res.PowerW,
		Util:         res.Util,
		DRAMReadMB:   float64(res.DRAM.BytesRead) / 1e6,
		DRAMWriteMB:  float64(res.DRAM.BytesWritten) / 1e6,
		FPGATimeSec:  fpgaTime,
		FPGAPowerW:   fpgaPower,
		PaperSpeedup: prof.PaperSpeedup,
		PaperPerfW:   prof.PaperPerfWatt,

		Retries:          res.DRAM.Retries,
		RetriesExhausted: res.DRAM.RetriesExhausted,
		LatencySpikes:    res.DRAM.LatencySpikes,
		Recovery:         res.Recovery,
		SimWallSec:       res.WallTime.Seconds(),
	}
	if res.Seconds > 0 {
		r.Speedup = fpgaTime / res.Seconds
	}
	if r.PowerW > 0 && fpgaPower > 0 {
		// Perf/W ratio = speedup * (FPGA power / Plasticine power).
		r.PerfPerWatt = r.Speedup * fpgaPower / r.PowerW
	}
	return r, nil
}

// FormatTable7 renders Table 7 rows in the paper's layout.
func FormatTable7(rows []*BenchResult) string {
	t := stats.New("Table 7: utilization, power, performance vs Stratix V FPGA",
		"Benchmark", "PCU%", "PMU%", "AG%", "FU%", "Plast W", "FPGA W",
		"Plast us", "FPGA us", "Speedup", "Perf/W", "Paper spd", "Paper p/w")
	for _, r := range rows {
		t.Add(r.Name,
			stats.Pct(r.Util.PCUFrac), stats.Pct(r.Util.PMUFrac), stats.Pct(r.Util.AGFrac),
			stats.Pct(r.Util.FUFrac),
			stats.F(r.PowerW), stats.F(r.FPGAPowerW),
			stats.F(r.TimeSec*1e6), stats.F(r.FPGATimeSec*1e6),
			stats.F(r.Speedup)+"x", stats.F(r.PerfPerWatt)+"x",
			stats.F(r.PaperSpeedup)+"x", stats.F(r.PaperPerfW)+"x")
	}
	return t.String()
}

// Table7JSON serialises benchmark rows for external tooling.
func Table7JSON(rows []*BenchResult) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}

// Table7CSV renders rows as CSV.
func Table7CSV(rows []*BenchResult) string {
	t := stats.New("", "benchmark", "cycles", "plasticine_us", "plasticine_w",
		"fpga_us", "fpga_w", "speedup", "perf_per_watt", "paper_speedup", "paper_perf_per_watt",
		"pcu_util", "pmu_util", "ag_util", "fu_util")
	for _, r := range rows {
		t.Add(r.Name, fmt.Sprint(r.Cycles),
			fmt.Sprintf("%.3f", r.TimeSec*1e6), fmt.Sprintf("%.2f", r.PowerW),
			fmt.Sprintf("%.3f", r.FPGATimeSec*1e6), fmt.Sprintf("%.2f", r.FPGAPowerW),
			fmt.Sprintf("%.3f", r.Speedup), fmt.Sprintf("%.3f", r.PerfPerWatt),
			fmt.Sprintf("%.1f", r.PaperSpeedup), fmt.Sprintf("%.1f", r.PaperPerfW),
			fmt.Sprintf("%.4f", r.Util.PCUFrac), fmt.Sprintf("%.4f", r.Util.PMUFrac),
			fmt.Sprintf("%.4f", r.Util.AGFrac), fmt.Sprintf("%.4f", r.Util.FUFrac))
	}
	return t.CSV()
}

// FormatTable5 renders the area breakdown in the paper's layout.
func FormatTable5(a arch.AreaBreakdown) string {
	t := stats.New("Table 5: Plasticine area breakdown (mm^2, 28 nm)",
		"Component", "Area", "Share")
	add := func(name string, area, of float64) {
		t.Add(name, stats.F(area), stats.Pct(area/of))
	}
	chip := a.ChipTotal()
	pcu, pmu := a.PCUTotal(), a.PMUTotal()
	add("PCU.FUs", a.PCUFUs, pcu)
	add("PCU.Registers", a.PCURegisters, pcu)
	add("PCU.FIFOs", a.PCUFIFOs, pcu)
	add("PCU.Control", a.PCUControl, pcu)
	add("PCU total (x1)", pcu, chip/float64(a.NumPCUs))
	add("PMU.Scratchpad", a.PMUScratchpad, pmu)
	add("PMU.FIFOs", a.PMUFIFOs, pmu)
	add("PMU.Registers", a.PMURegisters, pmu)
	add("PMU.FUs", a.PMUFUs, pmu)
	add("PMU total (x1)", pmu, chip/float64(a.NumPMUs))
	add("Interconnect", a.Interconnect, chip)
	add("Memory controller", a.MemoryController, chip)
	t.Add("Chip total", stats.F(chip), "100%")
	return t.String()
}
