// Benchmark harness: one target per measured artefact of the paper.
//
//	BenchmarkTable5Area       Table 5  (area breakdown)
//	BenchmarkTable3Sizing     Table 3  (parameter selection sweep)
//	BenchmarkTable6Overheads  Table 6  (generalization ladder)
//	BenchmarkTable7/<name>    Table 7  (one row per Table 4 benchmark)
//	BenchmarkFig7/<panel>     Figure 7 (panels a-f)
//	BenchmarkAblation/...     design-choice ablations from Section 3
//
// Run everything once:
//
//	go test -bench=. -benchmem -benchtime=1x .
package plasticine_test

import (
	"context"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/core"
	"plasticine/internal/dse"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

// BenchmarkTable5Area regenerates the Table 5 area breakdown.
func BenchmarkTable5Area(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		a := arch.Area(arch.Default())
		total = a.ChipTotal()
	}
	b.ReportMetric(total, "mm2")
}

// BenchmarkTable3Sizing runs the Section 3.7 selection sweep.
func BenchmarkTable3Sizing(b *testing.B) {
	benches, err := dse.LoadBenches()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := dse.NewSweep(benches, arch.Default().Chip, nil).Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkTable6Overheads regenerates the generalization ladder.
func BenchmarkTable6Overheads(b *testing.B) {
	benches, err := dse.LoadBenches()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cum float64
	for i := 0; i < b.N; i++ {
		rows, err := dse.NewSweep(benches, arch.Default().Chip, nil).Table6(context.Background(), arch.Default())
		if err != nil {
			b.Fatal(err)
		}
		cum = rows[len(rows)-1].CumE
	}
	b.ReportMetric(cum, "geomean-overhead")
}

// BenchmarkTable7 regenerates every Table 7 row: compile + cycle-level
// simulation + FPGA baseline for each Table 4 benchmark. The reported
// metrics are the simulated runtime and the speedup over the FPGA.
func BenchmarkTable7(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			var r *core.BenchResult
			var err error
			for i := 0; i < b.N; i++ {
				// A fresh session per iteration: its empty cache makes
				// every iteration compile and simulate.
				r, err = core.NewSession().RunBenchmark(context.Background(), w)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(r.Speedup, "speedup-vs-fpga")
			b.ReportMetric(r.PerfPerWatt, "perf/W-vs-fpga")
		})
	}
}

// BenchmarkFig7 computes each design-space panel of Figure 7.
func BenchmarkFig7(b *testing.B) {
	benches, err := dse.LoadBenches()
	if err != nil {
		b.Fatal(err)
	}
	for _, panel := range []string{"a", "b", "c", "d", "e", "f"} {
		panel := panel
		b.Run(panel, func(b *testing.B) {
			var best int
			for i := 0; i < b.N; i++ {
				p, err := dse.NewSweep(benches, arch.Default().Chip, nil).Figure7(context.Background(), panel)
				if err != nil {
					b.Fatal(err)
				}
				best = p.BestValue()
			}
			b.ReportMetric(float64(best), "selected-value")
		})
	}
}

// ablate runs a benchmark compiled for params under simulator options and
// reports the slowdown relative to the full-featured configuration (the
// paper's architecture, default options).
func ablate(b *testing.B, mk func() workloads.Benchmark, params arch.Params, opts sim.Options) {
	b.Helper()
	ctx := context.Background()
	opt := compiler.Options{Params: arch.Default()}
	var slowdown float64
	for i := 0; i < b.N; i++ {
		w := mk()
		p, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		m, err := compiler.CompileOpts(ctx, p, opt)
		if err != nil {
			b.Fatal(err)
		}
		base, _, err := sim.Simulate(ctx, m, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		w2 := mk()
		p2, err := w2.Build()
		if err != nil {
			b.Fatal(err)
		}
		m2, err := compiler.CompileOpts(ctx, p2, compiler.Options{Params: params})
		if err != nil {
			b.Fatal(err)
		}
		abl, _, err := sim.Simulate(ctx, m2, opts)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = float64(abl.Cycles) / float64(base.Cycles)
	}
	b.ReportMetric(slowdown, "slowdown")
}

// BenchmarkAblation quantifies the design choices Section 3 motivates:
// the coalescing unit (sparse traffic), N-buffered scratchpads
// (coarse-grained pipelining), and DRAM channel count.
func BenchmarkAblation(b *testing.B) {
	b.Run("CoalescingOff-PageRank", func(b *testing.B) {
		ablate(b, func() workloads.Benchmark { return workloads.NewPageRank() }, arch.Default(), sim.Options{CoalesceWindow: 1})
	})
	b.Run("CoalescingOff-SMDV", func(b *testing.B) {
		ablate(b, func() workloads.Benchmark { return workloads.NewSMDV() }, arch.Default(), sim.Options{CoalesceWindow: 1})
	})
	b.Run("NBufferOff-BlackScholes", func(b *testing.B) {
		ablate(b, func() workloads.Benchmark { return workloads.NewBlackScholes() }, arch.Default(), sim.Options{DisableNBuffer: true})
	})
	b.Run("NBufferOff-InnerProduct-NoUnroll", func(b *testing.B) {
		// With outer unrolling, duplicate tile copies already overlap
		// loads with compute; at Par=1 double buffering is the only
		// overlap mechanism, which is the textbook case (Section 3.5).
		mk := func() workloads.Benchmark {
			w := workloads.NewInnerProduct()
			w.Par = 1
			return w
		}
		ablate(b, mk, arch.Default(), sim.Options{DisableNBuffer: true})
	})
	b.Run("OneDDRChannel-TPCHQ6", func(b *testing.B) {
		one := arch.Default()
		one.Chip.DDRChannels = 1
		ablate(b, func() workloads.Benchmark { return workloads.NewTPCHQ6() }, one, sim.Options{})
	})
}
