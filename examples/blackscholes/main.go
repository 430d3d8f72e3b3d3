// Black-Scholes example: a deep floating-point pipeline split across many
// chained PCUs. Prints the partitioning the compiler chose and compares a
// pipelined execution against a fully sequential one (no tile double
// buffering), showing what coarse-grained pipelining buys (Section 3.5).
package main

import (
	"context"
	"fmt"
	"log"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

func main() {
	bench := workloads.NewBlackScholes()
	fmt.Println("Black-Scholes:", bench.ScaleNote())

	p, err := bench.Build()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: arch.Default()})
	if err != nil {
		log.Fatal(err)
	}
	// How did the deep pipeline partition across PCUs?
	for _, pc := range m.Part.PCUs {
		if pc.V.Name != "price" {
			continue
		}
		fmt.Printf("price pipeline: %d ops -> %d chained PCUs (x%d unroll)\n",
			len(pc.V.Ops), len(pc.Parts), pc.V.Unroll)
		total := 0
		for _, ph := range pc.Parts {
			total += ph.StagesUsed
		}
		fmt.Printf("  %d stages total, %.1f avg stage occupancy\n",
			total, float64(total)/float64(len(pc.Parts)))
	}
	printRun := func(label string, res *sim.Result) {
		fmt.Printf("%s: %d cycles (%.1f us), %.1f GB/s DRAM\n",
			label, res.Cycles, res.Seconds*1e6, res.EffectiveBandwidth()/1e9)
	}
	res, st, err := sim.Simulate(ctx, m, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := bench.Check(st); err != nil {
		log.Fatal(err)
	}
	printRun("pipelined (N-buffered tiles)", res)

	// Ablation: single-buffered tiles serialise loads with compute.
	p2, err := workloads.NewBlackScholes().Build()
	if err != nil {
		log.Fatal(err)
	}
	m2, err := compiler.CompileOpts(ctx, p2, compiler.Options{Params: arch.Default()})
	if err != nil {
		log.Fatal(err)
	}
	res2, _, err := sim.Simulate(ctx, m2, sim.Options{DisableNBuffer: true})
	if err != nil {
		log.Fatal(err)
	}
	printRun("single-buffered", res2)
	fmt.Printf("double buffering speedup: %.2fx\n", float64(res2.Cycles)/float64(res.Cycles))
}
