package dse

import (
	"fmt"
	"math"
	"testing"

	"plasticine/internal/arch"
)

// TestPCUStringMatchesFmt checks the reflection-free rendering of PCU
// parameters against fmt's %+v at every point of Table 3's design space,
// and at zero and negative values.
func TestPCUStringMatchesFmt(t *testing.T) {
	points := 0
	var walk func(i int, p arch.PCUParams)
	walk = func(i int, p arch.PCUParams) {
		if i == len(PCUSpace) {
			if got, want := pcuString(p), fmt.Sprintf("%+v", p); got != want {
				t.Fatalf("pcuString = %q, %%+v gives %q", got, want)
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
		if got, want := pcuString(p), fmt.Sprintf("%+v", p); got != want {
			t.Fatalf("pcuString = %q, %%+v gives %q", got, want)
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
