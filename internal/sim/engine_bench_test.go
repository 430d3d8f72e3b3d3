package sim

import (
	"context"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/workloads"
)

func benchEngine(b *testing.B, kind engineKind) {
	for i := 0; i < b.N; i++ {
		w, _ := workloads.ByName("InnerProduct")
		prog, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		m, err := compiler.CompileOpts(context.Background(), prog, compiler.Options{Params: arch.Default()})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		res, _, err := simulate(context.Background(), m, Options{}, kind.loop)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles)/res.WallTime.Seconds(), "cyc/s")
	}
}

func BenchmarkEngineEventIP(b *testing.B) { benchEngine(b, eventEngine) }
func BenchmarkEngineCycleIP(b *testing.B) { benchEngine(b, cycleEngine) }
