// GEMM example: run the Table 4 blocked matrix-multiply benchmark end to
// end against the FPGA baseline, then show how the runtime responds to an
// architecture knob by re-running on a chip with half the DRAM channels.
package main

import (
	"context"
	"fmt"
	"log"

	"plasticine/internal/arch"
	"plasticine/internal/core"
	"plasticine/internal/workloads"
)

func main() {
	bench := workloads.NewGEMM()
	fmt.Println("GEMM:", bench.ScaleNote())

	ctx := context.Background()
	r, err := core.NewSession().RunBenchmark(ctx, bench)
	if err != nil {
		log.Fatal(err)
	}
	prof := bench.Profile()
	fmt.Printf("plasticine: %.1f us, %.1f W, %.1f GFLOP/s\n",
		r.TimeSec*1e6, r.PowerW, prof.Flops/r.TimeSec/1e9)
	fmt.Printf("fpga model: %.1f us -> speedup %.2fx (paper %.1fx), perf/W %.2fx (paper %.1fx)\n",
		r.FPGATimeSec*1e6, r.Speedup, r.PaperSpeedup, r.PerfPerWatt, r.PaperPerfW)
	fmt.Printf("utilization: PCU %.0f%%, PMU %.0f%%, AG %.0f%%\n",
		100*r.Util.PCUFrac, 100*r.Util.PMUFrac, 100*r.Util.AGFrac)

	// Architecture study: halve the DRAM channels. GEMM has on-chip reuse,
	// so it should degrade far less than 2x.
	narrow := arch.Default()
	narrow.Chip.DDRChannels = 2
	r2, err := core.NewSession(core.WithArch(narrow)).RunBenchmark(ctx, workloads.NewGEMM())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith 2 DDR channels: %.1f us (%.2fx slower; locality shields compute-bound GEMM)\n",
		r2.TimeSec*1e6, r2.TimeSec/r.TimeSec)
}
