package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
	"plasticine/internal/workloads"
)

func TestRunBenchmarkInnerProduct(t *testing.T) {
	r, err := NewSession().RunBenchmark(context.Background(), workloads.NewInnerProduct())
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup <= 1 {
		t.Errorf("speedup = %.2f, Plasticine should beat the FPGA (paper: 1.4x)", r.Speedup)
	}
	if r.Speedup > 3 {
		t.Errorf("speedup = %.2f, memory-bound benchmarks are capped near the bandwidth ratio", r.Speedup)
	}
	if r.PerfPerWatt <= r.Speedup {
		t.Errorf("perf/W ratio %.2f should exceed speedup %.2f (FPGA draws more power)", r.PerfPerWatt, r.Speedup)
	}
}

// TestTable7Shape is the headline experiment: every benchmark must win
// against the FPGA baseline, the sparse benchmarks must win by more than
// the dense streaming ones, and perf/W must be favourable throughout
// (Section 4.5; the paper's peak is 76.9x on CNN).
func TestTable7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 7 is slow")
	}
	rows, err := NewSession().Table7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("got %d rows, want 13", len(rows))
	}
	byName := map[string]*BenchResult{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %.2f, Plasticine must win every row", r.Name, r.Speedup)
		}
		if r.PerfPerWatt <= 1 {
			t.Errorf("%s: perf/W ratio %.2f, must exceed 1", r.Name, r.PerfPerWatt)
		}
		if r.PowerW <= 0 || r.PowerW > 49 {
			t.Errorf("%s: power %.1f W outside the chip envelope", r.Name, r.PowerW)
		}
	}
	// Dense streaming rows are bandwidth-ratio bound (51.2/37.5 = 1.37),
	// paper reports 1.4x for both.
	for _, n := range []string{"InnerProduct", "TPCHQ6"} {
		if s := byName[n].Speedup; s > 2.5 {
			t.Errorf("%s: speedup %.2f too high for a bandwidth-bound row (paper 1.4x)", n, s)
		}
	}
	// Sparse rows benefit from coalescing and must beat the streaming rows.
	for _, n := range []string{"SMDV", "PageRank", "BFS"} {
		if byName[n].Speedup <= byName["InnerProduct"].Speedup {
			t.Errorf("%s: speedup %.2f should exceed InnerProduct's %.2f (coalescing win)",
				n, byName[n].Speedup, byName["InnerProduct"].Speedup)
		}
	}
	// CNN is the paper's largest win; it must be the largest or near-
	// largest compute-bound win here too.
	if byName["CNN"].Speedup < byName["GEMM"].Speedup {
		t.Errorf("CNN speedup %.2f below GEMM %.2f; paper has CNN as the top row",
			byName["CNN"].Speedup, byName["GEMM"].Speedup)
	}
	out := FormatTable7(rows)
	for _, want := range []string{"CNN", "Speedup", "Paper spd"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestTable5Format(t *testing.T) {
	out := FormatTable5(arch.Area(arch.Default()))
	for _, want := range []string{"PCU.FUs", "PMU.Scratchpad", "Interconnect", "Chip total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing %q:\n%s", want, out)
		}
	}
}

func TestSessionRunCustomProgram(t *testing.T) {
	b := dhdl.NewBuilder("custom", dhdl.Sequential)
	d := b.DRAMF32("d", 64)
	s := b.SRAM("s", pattern.F32, 64)
	sum := b.Reg("sum", pattern.VF(0))
	b.Seq("body", nil, func([]dhdl.Expr) {
		b.Load("ld", d, dhdl.CI(0), s, 64)
		b.Compute("sum", []dhdl.Counter{dhdl.CPar(64, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(sum, pattern.Add, dhdl.Ld(s, ix[0]))}
		})
	})
	p := b.MustBuild()
	data := make([]float32, 64)
	for i := range data {
		data[i] = 2
	}
	if err := d.Bind(pattern.FromF32("d", data)); err != nil {
		t.Fatal(err)
	}
	res, st, err := NewSession().Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(sum).F; got != 128 {
		t.Errorf("sum = %g, want 128", got)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles simulated")
	}
}

// TestSessionExplainHonoursCancel: a canceled explain reports the
// cancellation, never a program that does not fit.
func TestSessionExplainHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, err := NewSession().Explain(ctx, workloads.NewInnerProduct())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (explanation %+v)", err, ex)
	}
}

func TestRunBenchmarkReportsCompileErrors(t *testing.T) {
	tiny := arch.Default()
	tiny.Chip.Rows, tiny.Chip.Cols = 1, 2
	if _, err := NewSession(WithArch(tiny)).RunBenchmark(context.Background(), workloads.NewGEMM()); err == nil {
		t.Error("expected failure on a one-unit chip")
	}
}

func TestTable7Exports(t *testing.T) {
	rows := []*BenchResult{{
		Name: "X", Cycles: 100, TimeSec: 1e-7, PowerW: 10,
		FPGATimeSec: 1e-6, FPGAPowerW: 20, Speedup: 10, PerfPerWatt: 20,
		PaperSpeedup: 12, PaperPerfW: 25,
	}}
	csv := Table7CSV(rows)
	if !strings.HasPrefix(csv, "benchmark,cycles,") || !strings.Contains(csv, "\nX,100,") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
	js, err := Table7JSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Name": "X"`, `"Cycles": 100`, `"Speedup": 10`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}
