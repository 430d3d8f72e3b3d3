package dhdl_test

import (
	"testing"

	"plasticine/internal/dhdl"
	"plasticine/internal/lower"
	"plasticine/internal/pattern"
	"plasticine/internal/workloads"
)

// TestCompiledMatchesOracleOnBenchmarks runs all thirteen Table 4
// programs on the compiled interpreter and on the tree-walking oracle:
// DRAM outputs, on-chip memories and the event stream the simulator
// builds its timing graph from must be bit-identical, and the outputs
// must pass the benchmark's own check.
func TestCompiledMatchesOracleOnBenchmarks(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name(), func(t *testing.T) {
			p, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			st, err := dhdl.CheckAgainstOracle(t, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(st); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompiledMatchesOracleOnLoweredPatterns covers the programs the
// pattern front end generates: Map, Fold, FlatMap and HashReduce.
func TestCompiledMatchesOracleOnLoweredPatterns(t *testing.T) {
	const n = 2048
	a := pattern.NewF32("a", n)
	k := pattern.NewI32("k", n)
	for i := 0; i < n; i++ {
		a.SetF32(float32(i%13)*0.5-2, i)
		k.SetI32(int32((i*31)%16), i)
	}
	at := pattern.At(a, pattern.Index(0))
	pats := map[string]pattern.Pattern{
		"map":    pattern.Map([]int{n}, pattern.Add2(pattern.Mul2(at, at), pattern.F(1))),
		"index":  pattern.Map([]int{n}, pattern.Mul2(pattern.Index(0), pattern.I(3))),
		"fold":   pattern.Fold([]int{n}, pattern.F(0), at, pattern.Add),
		"max":    pattern.Fold([]int{n}, pattern.F(-3.4e38), at, pattern.Max),
		"filter": pattern.Filter([]int{n}, pattern.Lt2(pattern.At(k, pattern.Index(0)), pattern.I(5)), pattern.At(k, pattern.Index(0))),
		"hash":   pattern.HashReduce([]int{n}, pattern.At(k, pattern.Index(0)), []pattern.Expr{pattern.I(1), at}, pattern.Add, 16),
	}
	for name, p := range pats {
		t.Run(name, func(t *testing.T) {
			res, err := lower.Pattern(p, lower.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dhdl.CheckAgainstOracle(t, res.Prog); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkTrace times the compiled interpreter alone on each benchmark
// program, from the same inputs every iteration.
func BenchmarkTrace(b *testing.B) {
	benchTrace(b, func(p *dhdl.Program) error { _, err := dhdl.Trace(p, nil); return err })
}

// BenchmarkTraceReference is BenchmarkTrace on the tree-walking oracle,
// for comparison.
func BenchmarkTraceReference(b *testing.B) {
	benchTrace(b, func(p *dhdl.Program) error { _, err := dhdl.TraceReference(p, nil); return err })
}

func benchTrace(b *testing.B, run func(*dhdl.Program) error) {
	for _, w := range workloads.All() {
		b.Run(w.Name(), func(b *testing.B) {
			p, err := w.Build()
			if err != nil {
				b.Fatal(err)
			}
			inputs := dhdl.SnapshotDRAM(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dhdl.RestoreDRAM(p, inputs)
				b.StartTimer()
				if err := run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
