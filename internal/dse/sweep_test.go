package dse

import (
	"math"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
)

// BenchmarkAnalyticalArea times one uncached design-point probe per Figure 7
// benchmark at the Table 3 point: partitioning every virtual PCU.
func BenchmarkAnalyticalArea(b *testing.B) {
	benches, err := LoadBenches()
	if err != nil {
		b.Fatal(err)
	}
	p := arch.Default()
	for _, bench := range benches {
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if math.IsInf(AnalyticalArea(bench, p.PCU, p.Chip), 1) {
					b.Fatal("infeasible at the Table 3 point")
				}
			}
		})
	}
}

// TestAreaProbeAllocs pins what one design-point probe allocates on a
// metered sweep with an engine: nothing. The count-only partition
// allocates nothing, and a probe is priced directly, never looked up in or
// stored to the cache.
func TestAreaProbeAllocs(t *testing.T) {
	b, err := LoadBench("BlackScholes") // the longest units
	if err != nil {
		t.Fatal(err)
	}
	s := NewSweep([]*Bench{b}, arch.Default().Chip, exec.NewEngine(1))
	s.SetMetrics(metrics.NewRegistry())
	var points []arch.PCUParams
	for st := 5; st <= 16; st++ {
		for r := 2; r <= 16; r++ {
			p := maxParams()
			p.Stages, p.Registers = st, r
			points = append(points, p)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(len(points)-1, func() {
		s.area(b, points[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("a probe allocates %v times, want 0", allocs)
	}
	if n := s.mPoints.Value(); n != int64(len(points)) {
		t.Fatalf("%d points counted for %d probes", n, len(points))
	}
	if st := s.Engine.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("probes reached the cache: %v", st)
	}
}
