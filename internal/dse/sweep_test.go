package dse

import (
	"context"
	"fmt"
	"math"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/exec"
)

// TestPCUStringMatchesFmt checks the reflection-free rendering of PCU
// parameters that areaKey uses against fmt's %+v at every point of Table 3's
// design space, and at zero and negative values.
func TestPCUStringMatchesFmt(t *testing.T) {
	points := 0
	var walk func(i int, p arch.PCUParams)
	walk = func(i int, p arch.PCUParams) {
		if i == len(PCUSpace) {
			if got, want := string(appendPCU(nil, p)), fmt.Sprintf("%+v", p); got != want {
				t.Fatalf("appendPCU gives %q, %%+v gives %q", got, want)
			}
			points++
			return
		}
		for _, v := range PCUSpace[i].Values {
			*PCUSpace[i].Field(&p) = v
			walk(i+1, p)
		}
	}
	walk(0, maxParams())
	if points != 16*11*8*6*7*6 {
		t.Fatalf("walked %d points of the grid", points)
	}
	for _, p := range []arch.PCUParams{{}, {Lanes: -1, Stages: -16, VectorOuts: -1234567}} {
		if got, want := string(appendPCU(nil, p)), fmt.Sprintf("%+v", p); got != want {
			t.Fatalf("appendPCU gives %q, %%+v gives %q", got, want)
		}
	}
}

// TestAreaKeyPinned pins one design point's cache key. A persistent tier
// names each entry by its key's hash, so a changed key would leave every
// existing tier unreadable.
func TestAreaKeyPinned(t *testing.T) {
	p := arch.Default()
	got := NewSweep(nil, p.Chip, nil).areaKey(&Bench{Name: "GEMM"}, p.PCU).String()
	want := "dse/pcu-area\x00GEMM\x00" +
		"{Lanes:16 Stages:6 Registers:6 ScalarIns:6 ScalarOuts:5 VectorIns:3 VectorOuts:3}\x00" +
		"{Rows:8 Cols:16 DDRChannels:4 AGsPerSide:17 CoalescingUnit:4 ClockMHz:1000 VectorFIFODepth:16 ScalarFIFODepth:16}"
	if got != want {
		t.Fatalf("key = %q, want %q", got, want)
	}
}

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

// TestAreaProbeAllocs pins what one design-point probe allocates through a
// session's cache: a warm hit builds only its key, and a miss that stores
// a point adds only the entry it stores, since the count-only partition
// allocates nothing.
func TestAreaProbeAllocs(t *testing.T) {
	b, err := LoadBench("BlackScholes") // the longest units
	if err != nil {
		t.Fatal(err)
	}
	s := NewSweep([]*Bench{b}, arch.Default().Chip, exec.NewEngine(1))
	var points []arch.PCUParams
	for st := 5; st <= 16; st++ {
		for r := 2; r <= 16; r++ {
			p := maxParams()
			p.Stages, p.Registers = st, r
			points = append(points, p)
		}
	}
	ctx := context.Background()
	next := 0
	miss := testing.AllocsPerRun(len(points)-1, func() {
		s.benchArea(ctx, b, points[next])
		next++
	})
	hit := testing.AllocsPerRun(100, func() { s.benchArea(ctx, b, points[0]) })
	if st := s.Engine.CacheStats(); st.Misses != int64(len(points)) {
		t.Fatalf("%d misses, want %d", st.Misses, len(points))
	}
	if hit != 1 || miss != 2 {
		t.Fatalf("a probe allocates %v times on a hit and %v on a miss, want 1 and 2", hit, miss)
	}
}
