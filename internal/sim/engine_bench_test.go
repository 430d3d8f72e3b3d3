package sim

import (
	"context"
	"testing"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/workloads"
)

// benchEngine times one simulation of a benchmark per iteration: the
// functional trace, the graph build and the engine. Building and compiling
// the program, which every iteration needs afresh because the trace writes
// into its bound collections, stay outside the timer. cyc/s is simulated
// cycles per second of engine time alone.
func benchEngine(b *testing.B, name string, kind engineKind) {
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
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
		m, err := compiler.CompileOpts(context.Background(), prog, compiler.Options{Params: arch.Default()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, _, err := simulate(context.Background(), m, Options{}, kind.loop)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		wall += res.WallTime
	}
	b.ReportMetric(float64(cycles)/wall.Seconds(), "cyc/s")
}

func BenchmarkEngineEventIP(b *testing.B) { benchEngine(b, "InnerProduct", eventEngine) }
func BenchmarkEngineCycleIP(b *testing.B) { benchEngine(b, "InnerProduct", cycleEngine) }

// OuterProduct is the burst-heavy case: about 500 bursts per transfer.
func BenchmarkEngineEventOP(b *testing.B) { benchEngine(b, "OuterProduct", eventEngine) }
func BenchmarkEngineCycleOP(b *testing.B) { benchEngine(b, "OuterProduct", cycleEngine) }
