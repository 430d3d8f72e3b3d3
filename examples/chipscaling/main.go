// Chip-scaling example (an extension beyond the paper's evaluation): hold
// the workload fixed and vary the fabric size and memory system to see
// which benchmarks are compute-provisioning-bound versus bandwidth-bound —
// the trade the paper's Section 3.7 sizing navigates.
package main

import (
	"context"
	"fmt"
	"log"

	"plasticine/internal/arch"
	"plasticine/internal/core"
	"plasticine/internal/stats"
	"plasticine/internal/workloads"
)

func main() {
	configs := []struct {
		name       string
		cols, rows int
		channels   int
	}{
		{"quarter (8x4, 2ch)", 8, 4, 2},
		{"half (8x8, 2ch)", 8, 8, 2},
		{"paper (16x8, 4ch)", 16, 8, 4},
		{"double (16x16, 8ch)", 16, 16, 8},
	}
	t := stats.New("chip scaling: simulated runtime (us)",
		"Benchmark", configs[0].name, configs[1].name, configs[2].name, configs[3].name)
	for _, name := range []string{"InnerProduct", "GEMM", "CNN"} {
		row := []string{name}
		for _, c := range configs {
			p := arch.Default()
			p.Chip.Cols, p.Chip.Rows = c.cols, c.rows
			p.Chip.DDRChannels = c.channels
			b, err := workloads.ByName(name)
			if err != nil {
				log.Fatal(err)
			}
			r, err := core.NewSession(core.WithArch(p)).RunBenchmark(context.Background(), b)
			if err != nil {
				row = append(row, "does not fit")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", r.TimeSec*1e6))
		}
		t.Add(row...)
	}
	fmt.Print(t.String())
	fmt.Println("\nreading the table:")
	fmt.Println("- InnerProduct tracks the channel count (bandwidth-bound; Section 4.5)")
	fmt.Println("- GEMM and CNN track the unit count until they saturate their unrolling")
}
