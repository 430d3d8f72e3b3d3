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

// ablation is one design choice Section 3 motivates: a benchmark compiled
// for the paper's chip and simulated with default options, against the
// same benchmark compiled for params and simulated under opts, with the
// feature taken away. base and ablated are the two runs' cycles.
type ablation struct {
	name          string
	mk            func() workloads.Benchmark
	params        arch.Params
	opts          sim.Options
	base, ablated int64
}

// ablations are the coalescing unit (sparse traffic), N-buffered
// scratchpads (coarse-grained pipelining) and the DRAM channel count.
func ablations() []ablation {
	oneChannel := arch.Default()
	oneChannel.Chip.DDRChannels = 1
	return []ablation{
		{"CoalescingOff-PageRank", func() workloads.Benchmark { return workloads.NewPageRank() },
			arch.Default(), sim.Options{CoalesceWindow: 1}, 72493, 126334},
		{"CoalescingOff-SMDV", func() workloads.Benchmark { return workloads.NewSMDV() },
			arch.Default(), sim.Options{CoalesceWindow: 1}, 30464, 52063},
		{"NBufferOff-BlackScholes", func() workloads.Benchmark { return workloads.NewBlackScholes() },
			arch.Default(), sim.Options{DisableNBuffer: true}, 15904, 19472},
		// With outer unrolling, duplicate tile copies already overlap
		// loads with compute; at Par=1 double buffering is the only
		// overlap mechanism, which is the textbook case (Section 3.5).
		{"NBufferOff-InnerProduct-NoUnroll", func() workloads.Benchmark {
			w := workloads.NewInnerProduct()
			w.Par = 1
			return w
		}, arch.Default(), sim.Options{DisableNBuffer: true}, 55361, 78508},
		{"OneDDRChannel-TPCHQ6", func() workloads.Benchmark { return workloads.NewTPCHQ6() },
			oneChannel, sim.Options{}, 84010, 335785},
	}
}

// run simulates both sides, each from a fresh instance.
func (a ablation) run(tb testing.TB) (base, ablated int64) {
	tb.Helper()
	return cycles(tb, a.mk(), arch.Default(), sim.Options{}), cycles(tb, a.mk(), a.params, a.opts)
}

// cycles builds w, compiles it for params and simulates it under opts.
func cycles(tb testing.TB, w workloads.Benchmark, params arch.Params, opts sim.Options) int64 {
	tb.Helper()
	ctx := context.Background()
	p, err := w.Build()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: params})
	if err != nil {
		tb.Fatal(err)
	}
	res, _, err := sim.Simulate(ctx, m, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Cycles
}

// TestAblationCycles pins both sides of every ablation: the graph
// builder's N-buffer ring, its coalescing window and the memory system's
// channel count each decide one of them.
func TestAblationCycles(t *testing.T) {
	for _, a := range ablations() {
		t.Run(a.name, func(t *testing.T) {
			if base, abl := a.run(t); base != a.base || abl != a.ablated {
				t.Errorf("%d cycles with the feature, %d without; want %d and %d", base, abl, a.base, a.ablated)
			}
		})
	}
}

// BenchmarkAblation reports each ablation's slowdown: the cycles without
// the feature over the cycles with it.
func BenchmarkAblation(b *testing.B) {
	for _, a := range ablations() {
		b.Run(a.name, func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				base, abl := a.run(b)
				slowdown = float64(abl) / float64(base)
			}
			b.ReportMetric(slowdown, "slowdown")
		})
	}
}
