// PageRank example: the sparse-workload path — DRAM gathers through the
// address-coalescing unit — plus an ablation that disables coalescing to
// show why the paper's dedicated hardware matters (Section 3.4).
package main

import (
	"context"
	"fmt"
	"log"

	"plasticine/internal/compiler"
	"plasticine/internal/core"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

func main() {
	bench := workloads.NewPageRank()
	fmt.Println("PageRank:", bench.ScaleNote())

	ctx := context.Background()
	sess := core.NewSession()
	r, err := sess.RunBenchmark(ctx, bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plasticine: %.1f us, DRAM %.2f MB read\n", r.TimeSec*1e6, r.DRAMReadMB)
	fmt.Printf("fpga model: %.1f us -> speedup %.2fx (paper %.1fx)\n",
		r.FPGATimeSec*1e6, r.Speedup, r.PaperSpeedup)

	// Ablation: shrink the coalescing cache to a single entry, so every
	// gathered rank pays a full burst.
	p, err := workloads.NewPageRank().Build()
	if err != nil {
		log.Fatal(err)
	}
	m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: sess.Params()})
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := sim.Simulate(ctx, m, sim.Options{CoalesceWindow: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout address coalescing: %.1f us (%.2fx slower, %.2f MB read)\n",
		res.Seconds*1e6, res.Seconds/r.TimeSec, float64(res.DRAM.BytesRead)/1e6)
}
