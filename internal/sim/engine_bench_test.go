package sim

import (
	"context"
	"testing"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/fault"
	"plasticine/internal/workloads"
)

// benchEngine times one simulation of a benchmark per iteration: the
// functional trace, the graph build and the engine. Building and compiling
// the program, which every iteration needs afresh because the trace writes
// into its bound collections, stay outside the timer. A non-empty faults
// spec compiles each iteration against a fresh copy of its plan and
// simulates with Recovery on, so timed events are survived. cyc/s is
// simulated cycles per second of engine time alone (with recovery, of the
// whole recovered run after the graph build).
func benchEngine(b *testing.B, name, faults string, kind engineKind) {
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var plan *fault.Plan
	if faults != "" {
		spec, err := fault.ParseSpec(faults)
		if err != nil {
			b.Fatal(err)
		}
		if plan, err = fault.NewPlan(spec, arch.Default()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	var cycles int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
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
			b.Fatal("no timed fault fired: the run never recovered")
		}
		cycles += res.Cycles
		wall += res.WallTime
	}
	b.ReportMetric(float64(cycles)/wall.Seconds(), "cyc/s")
}

func BenchmarkEngineEventIP(b *testing.B) { benchEngine(b, "InnerProduct", "", eventEngine) }
func BenchmarkEngineCycleIP(b *testing.B) { benchEngine(b, "InnerProduct", "", cycleEngine) }

// OuterProduct is the burst-heavy case: about 500 bursts per transfer.
func BenchmarkEngineEventOP(b *testing.B) { benchEngine(b, "OuterProduct", "", eventEngine) }
func BenchmarkEngineCycleOP(b *testing.B) { benchEngine(b, "OuterProduct", "", cycleEngine) }

// SMDV under a faulted memory system is the sparse case: gathers spread over
// every bank, with a channel down, transient retries, latency spikes, and a
// PCU and a channel killed mid-run and survived by recovery.
func BenchmarkEngineEventSMDVFaulted(b *testing.B) {
	benchEngine(b, "SMDV", "seed=3,chan=1,retry=0.002,spike=0.02,kill-pcu@8000,kill-chan@20000", eventEngine)
}
