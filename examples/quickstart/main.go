// Quickstart: write a parallel-pattern program (a dot product expressed as
// Map + Fold, Section 2), check it with the pattern evaluator, then build
// the equivalent tiled DHDL program, compile it onto the default 16x8
// Plasticine chip and simulate it cycle by cycle.
package main

import (
	"context"
	"fmt"
	"log"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/core"
	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

func main() {
	const n, tile = 16384, 1024

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

	// --- 2. The DHDL program: explicit tiles, loads and reductions. ---
	bd := dhdl.NewBuilder("dot", dhdl.Sequential)
	da := bd.DRAMF32("a", n)
	db := bd.DRAMF32("b", n)
	ta := bd.SRAM("ta", pattern.F32, tile)
	tb := bd.SRAM("tb", pattern.F32, tile)
	partial := bd.Reg("partial", pattern.VF(0))
	total := bd.Reg("total", pattern.VF(0))
	bd.Pipe("tiles", []dhdl.Counter{dhdl.CStepPar(0, n, tile, 4)}, func(ix []dhdl.Expr) {
		bd.Load("loadA", da, ix[0], ta, tile)
		bd.Load("loadB", db, ix[0], tb, tile)
		bd.Compute("mac", []dhdl.Counter{dhdl.CPar(tile, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(partial, pattern.Add,
				dhdl.Mul(dhdl.Ld(ta, jx[0]), dhdl.Ld(tb, jx[0])))}
		})
		bd.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(total, dhdl.Add(dhdl.Rd(total), dhdl.Rd(partial)))}
		})
	})
	prog := bd.MustBuild()
	if err := da.Bind(a); err != nil {
		log.Fatal(err)
	}
	if err := db.Bind(b); err != nil {
		log.Fatal(err)
	}
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
		st.RegValue(total).F, res.Cycles, res.Seconds*1e6, res.PowerW)
	fmt.Printf("DRAM: %d KB read at %.1f GB/s effective\n",
		res.DRAM.BytesRead/1024, res.EffectiveBandwidth()/1e9)
}
