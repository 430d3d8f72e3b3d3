// Quickstart: write a parallel-pattern program (a dot product expressed as
// Map + Fold, Section 2), check it with the pattern evaluator, lower it to
// a tiled DHDL program (Section 3.6), compile that onto the default 16x8
// Plasticine chip and simulate it cycle by cycle.
package main

import (
	"context"
	"fmt"
	"log"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/core"
	"plasticine/internal/lower"
	"plasticine/internal/pattern"
)

func main() {
	const n = 16384

	// --- 1. The programming model: Fold over an index domain. ---
	a := pattern.NewF32("a", n)
	b := pattern.NewF32("b", n)
	for i := 0; i < n; i++ {
		a.SetF32(float32(i%17)*0.25, i)
		b.SetF32(float32(i%11)-5, i)
	}
	fold := pattern.Fold([]int{n}, pattern.F(0),
		pattern.Mul2(pattern.At(a, pattern.Index(0)), pattern.At(b, pattern.Index(0))),
		pattern.Add)
	ref, err := pattern.Run(fold)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern evaluator: dot = %.2f\n", ref[0].F)
	fmt.Printf("pattern: %s\n", pattern.FormatPattern(fold))

	// --- 2. Lower to DHDL: explicit tiles (1024 elements, 4 in parallel),
	// loads and a 16-lane reduction. ---
	low, err := lower.Pattern(fold, lower.Options{})
	if err != nil {
		log.Fatal(err)
	}
	prog := low.Prog
	fmt.Printf("\ncontroller tree:\n%s", prog.Tree())

	// --- 3. Compile and simulate. ---
	ctx := context.Background()
	mapping, err := compiler.CompileOpts(ctx, prog, compiler.Options{Params: arch.Default()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", mapping.Summary())

	res, st, err := core.NewSession().Run(ctx, prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated: dot = %.2f in %d cycles (%.2f us at 1 GHz), %.1f W\n",
		st.RegValue(low.OutReg).F, res.Cycles, res.Seconds*1e6, res.PowerW)
	fmt.Printf("DRAM: %d KB read at %.1f GB/s effective\n",
		res.DRAM.BytesRead/1024, res.EffectiveBandwidth()/1e9)
}
