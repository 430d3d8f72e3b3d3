package sim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/fault"
	"plasticine/internal/workloads"
)

// engineRun is one simulation a benchmark iteration times: a Table 4
// benchmark under a fault spec ("" for a pristine fabric).
type engineRun struct{ name, faults string }

// benchEngine times one simulation per run per iteration: the functional
// trace, the graph build and the engine. Building and compiling each
// program, which every iteration needs afresh because the trace writes into
// its bound collections, stay outside the timer. A non-empty faults spec
// compiles against its plan, which recovery never writes, and simulates
// with Recovery on, so timed events are survived. cyc/s is simulated cycles
// per second of engine time alone (with recovery, of the whole recovered
// run after the graph build).
func benchEngine(b *testing.B, kind engineKind, runs ...engineRun) {
	ws, plans := resolveRuns(b, runs)
	b.ReportAllocs()
	var cycles int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		for k, w := range ws {
			plan := plans[k]
			b.StopTimer()
			prog, err := w.Build()
			if err != nil {
				b.Fatal(err)
			}
			m, err := compiler.CompileOpts(context.Background(), prog,
				compiler.Options{Params: arch.Default(), Faults: plan})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, _, err := simulate(context.Background(), m, Options{Recovery: plan != nil}, kind.loop)
			if err != nil {
				b.Fatal(err)
			}
			if plan != nil && len(plan.Events()) > 0 && (res.Recovery == nil || len(res.Recovery.Events) == 0) {
				b.Fatalf("%s under %s: no timed fault fired, the run never recovered", runs[k].name, runs[k].faults)
			}
			cycles += res.Cycles
			wall += res.WallTime
		}
	}
	b.ReportMetric(float64(cycles)/wall.Seconds(), "cyc/s")
}

// resolveRuns looks up each run's benchmark and fault plan (nil on a
// pristine fabric).
func resolveRuns(b *testing.B, runs []engineRun) ([]workloads.Benchmark, []*fault.Plan) {
	ws := make([]workloads.Benchmark, len(runs))
	plans := make([]*fault.Plan, len(runs))
	for i, r := range runs {
		w, err := workloads.ByName(r.name)
		if err != nil {
			b.Fatal(err)
		}
		ws[i] = w
		if r.faults == "" {
			continue
		}
		spec, err := fault.ParseSpec(r.faults)
		if err != nil {
			b.Fatal(err)
		}
		if plans[i], err = fault.NewPlan(spec, arch.Default()); err != nil {
			b.Fatal(err)
		}
	}
	return ws, plans
}

// benchGraph times the graph build alone, prepare on each run's recorded
// log: building, compiling and tracing each program happen once, before
// the timer starts.
func benchGraph(b *testing.B, runs ...engineRun) {
	ws, plans := resolveRuns(b, runs)
	ms := make([]*compiler.Mapping, len(runs))
	logs := make([]*Log, len(runs))
	for k, w := range ws {
		prog, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		if ms[k], err = compiler.CompileOpts(context.Background(), prog,
			compiler.Options{Params: arch.Default(), Faults: plans[k]}); err != nil {
			b.Fatal(err)
		}
		if logs[k], _, err = Execute(context.Background(), prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, m := range ms {
			if _, err := prepare(context.Background(), m, logs[k], Options{}, eventLoop); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineEventIP(b *testing.B) { benchEngine(b, eventEngine, engineRun{"InnerProduct", ""}) }
func BenchmarkEngineCycleIP(b *testing.B) { benchEngine(b, cycleEngine, engineRun{"InnerProduct", ""}) }

// OuterProduct is the burst-heavy case: about 500 bursts per transfer.
func BenchmarkEngineEventOP(b *testing.B) { benchEngine(b, eventEngine, engineRun{"OuterProduct", ""}) }
func BenchmarkEngineCycleOP(b *testing.B) { benchEngine(b, cycleEngine, engineRun{"OuterProduct", ""}) }

// sparseFaultSpec is a faulted memory system: a channel down, transient
// retries, latency spikes, and a PCU and a channel killed mid-run and
// survived by recovery.
func sparseFaultSpec(seed int) string {
	return fmt.Sprintf("seed=%d,chan=1,retry=0.002,spike=0.02,kill-pcu@8000,kill-chan@20000", seed)
}

// SMDV under a faulted memory system is the sparse case: gathers spread over
// every bank.
func BenchmarkEngineEventSMDVFaulted(b *testing.B) {
	benchEngine(b, eventEngine, engineRun{"SMDV", sparseFaultSpec(3)})
}

// BenchmarkEngineEventSparseFaulted is the sparse and DRAM-bound set under
// the faulted memory system, one simulation of each per fault seed: the
// engine's share of a sparse and faulted evaluation, in process.
func BenchmarkEngineEventSparseFaulted(b *testing.B) {
	benchEngine(b, eventEngine, sparseFaultedRuns()...)
}

// sparseFaultedRuns are sparse-faulted's 5 benchmarks under the faulted
// memory system at fault seeds 1 to 3.
func sparseFaultedRuns() []engineRun {
	var runs []engineRun
	for seed := 1; seed <= 3; seed++ {
		for _, name := range []string{"InnerProduct", "TPCHQ6", "SMDV", "PageRank", "BFS"} {
			runs = append(runs, engineRun{name, sparseFaultSpec(seed)})
		}
	}
	return runs
}

// BenchmarkGraphOP is OuterProduct's graph build, whose transfers move
// about 500 bursts each.
func BenchmarkGraphOP(b *testing.B) { benchGraph(b, engineRun{"OuterProduct", ""}) }

// BenchmarkGraphSparseFaulted is the graph build of the sparse and
// DRAM-bound set under the faulted memory system, whose sparse transfers
// list their coalesced bursts.
func BenchmarkGraphSparseFaulted(b *testing.B) { benchGraph(b, sparseFaultedRuns()...) }
