package compiler

import (
	"context"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
	"plasticine/internal/lower"
	"plasticine/internal/pattern"
)

// FuzzCompile drives the whole front half of the toolchain — pattern
// construction, lowering, DHDL build, and CompileOpts (optionally under a fault
// plan) — with fuzz-chosen shapes and ops, proving that malformed or
// unmappable programs come back as errors, never panics.
func FuzzCompile(f *testing.F) {
	f.Add(uint16(64), byte(0), byte(0), byte(4), byte(16), int64(0), byte(0))
	f.Add(uint16(1024), byte(1), byte(2), byte(2), byte(8), int64(7), byte(3))
	f.Add(uint16(100), byte(2), byte(7), byte(3), byte(1), int64(1), byte(40))
	f.Add(uint16(0), byte(3), byte(23), byte(0), byte(0), int64(9), byte(255))
	f.Fuzz(func(t *testing.T, n16 uint16, kind, opb, par, lanes byte, seed int64, faulty byte) {
		n := int(n16)
		coll := pattern.NewF32("in", n+1)
		op := pattern.Op(int(opb) % 24)
		body := pattern.Add2(pattern.At(coll, pattern.Index(0)), pattern.F(1))
		var p pattern.Pattern
		switch kind % 4 {
		case 0:
			p = pattern.Map([]int{n}, body)
		case 1:
			p = pattern.Fold([]int{n}, pattern.F(0), body, op)
		case 2:
			p = pattern.Filter([]int{n}, pattern.Lt2(body, pattern.F(3)), body)
		default:
			key := pattern.ToI32{X: body}
			p = pattern.HashReduce([]int{n}, &key, []pattern.Expr{body}, op, int(opb)%7)
		}
		res, err := lower.Pattern(p, lower.Options{
			Tile: 1 << (par % 12), Par: int(par)%5 + 1, Lanes: int(lanes)%17 + 1,
		})
		if err != nil {
			return // rejected cleanly
		}
		params := arch.Default()
		var plan *fault.Plan
		if faulty > 0 {
			plan, err = fault.NewPlan(fault.Spec{
				Seed: seed,
				PCUs: int(faulty) % 8, PMUs: int(faulty) % 5,
				Switches: int(faulty) % 3, Chans: int(faulty) % 2,
			}, params)
			if err != nil {
				t.Fatalf("NewPlan rejected an in-range spec: %v", err)
			}
		}
		if _, err := CompileOpts(context.Background(), res.Prog, Options{Params: params, Faults: plan}); err != nil {
			return // unmappable programs must fail with an error, not a panic
		}
	})
}

// FuzzBuilderCompile assembles raw DHDL programs with fuzz-chosen (and
// often invalid) structure and compiles them: nesting misuse, zero-size
// memories, and degenerate counters must all surface as errors.
func FuzzBuilderCompile(f *testing.F) {
	f.Add(byte(4), byte(16), byte(2), true)
	f.Add(byte(0), byte(0), byte(0), false)
	f.Add(byte(255), byte(1), byte(9), true)
	f.Fuzz(func(t *testing.T, tile, lanes, extra byte, storeToo bool) {
		b := dhdl.NewBuilder("fz", dhdl.Sequential)
		d := b.DRAMF32("d", int(tile)*4)
		s := b.SRAM("s", pattern.F32, int(tile))
		b.Pipe("tiles", []dhdl.Counter{dhdl.CStep(0, int(tile)*4, int(tile))}, func(ix []dhdl.Expr) {
			b.Load("ld", d, ix[0], s, int(tile))
			b.Compute("c", []dhdl.Counter{dhdl.CPar(int(tile), int(lanes)%17)}, func(jx []dhdl.Expr) []*dhdl.Assign {
				v := dhdl.Add(dhdl.Ld(s, jx[0]), dhdl.CF(float32(extra)))
				return []*dhdl.Assign{dhdl.StoreAt(s, jx[0], v)}
			})
			if storeToo {
				b.Store("st", d, ix[0], s, int(tile))
			}
		})
		prog, err := b.Build()
		if err != nil {
			return
		}
		if _, err := CompileOpts(context.Background(), prog, Options{Params: arch.Default()}); err != nil {
			return
		}
	})
}
