package compiler

import (
	"context"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

// buildDotProgram is a tiled dot product used across compiler tests.
func buildDotProgram(n, tile, lanes int) *dhdl.Program {
	b := dhdl.NewBuilder("dot", dhdl.Sequential)
	a := b.DRAMF32("a", n)
	bv := b.DRAMF32("b", n)
	ta := b.SRAM("ta", pattern.F32, tile)
	tb := b.SRAM("tb", pattern.F32, tile)
	partial := b.Reg("partial", pattern.VF(0))
	total := b.Reg("total", pattern.VF(0))
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStep(0, n, tile)}, func(ix []dhdl.Expr) {
		b.Load("loadA", a, ix[0], ta, tile)
		b.Load("loadB", bv, ix[0], tb, tile)
		b.Compute("mac", []dhdl.Counter{dhdl.CPar(tile, lanes)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(partial, pattern.Add, dhdl.Mul(dhdl.Ld(ta, jx[0]), dhdl.Ld(tb, jx[0])))}
		})
		b.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(total, dhdl.Add(dhdl.Rd(total), dhdl.Rd(partial)))}
		})
	})
	return b.MustBuild()
}

// TestCompileRejectsNegativeStep: a counter stepping below 1 runs no
// iterations by Trips, so the compiler would plan none; it is an error
// instead, returned before any pass runs.
func TestCompileRejectsNegativeStep(t *testing.T) {
	r := &dhdl.Reg{Name: "r", Elem: pattern.I32, Init: pattern.VI(0)}
	p := &dhdl.Program{Name: "backwards", Regs: []*dhdl.Reg{r}, Root: &dhdl.Controller{Kind: dhdl.Sequential,
		Children: []*dhdl.Controller{{Name: "down", Kind: dhdl.ComputeKind,
			Chain: []dhdl.Counter{{Min: 0, Max: 4, Step: -1, Par: 1}},
			Body:  []*dhdl.Assign{dhdl.SetReg(r, dhdl.Idx(0))}}}}}
	_, err := CompileOpts(context.Background(), p, Options{Params: arch.Default()})
	if err == nil || !strings.Contains(err.Error(), "step -1") {
		t.Fatalf("CompileOpts = %v, want a step error", err)
	}
}

func TestAllocateDotProgram(t *testing.T) {
	v, err := Allocate(buildDotProgram(1024, 256, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.PCUs) != 2 {
		t.Fatalf("got %d virtual PCUs, want 2 (mac, acc)", len(v.PCUs))
	}
	if len(v.PMUs) != 2 {
		t.Fatalf("got %d virtual PMUs, want 2 (ta, tb)", len(v.PMUs))
	}
	if len(v.AGs) != 2 {
		t.Fatalf("got %d virtual AGs, want 2 (loadA, loadB)", len(v.AGs))
	}
	if v.OuterCtrls != 2 { // root + tiles
		t.Errorf("outer controllers = %d, want 2", v.OuterCtrls)
	}
	mac := v.PCUs[0]
	if mac.Name != "mac" {
		t.Fatalf("first PCU is %q, want mac", mac.Name)
	}
	if mac.Lanes != 16 {
		t.Errorf("mac lanes = %d, want 16", mac.Lanes)
	}
	// mac: mul + reduce.
	if len(mac.Ops) != 2 || mac.Ops[0].Kind != ALUOp || mac.Ops[1].Kind != ReduceOp {
		t.Errorf("mac ops = %+v, want [mul, reduce]", mac.Ops)
	}
	if len(mac.VecIns) != 2 {
		t.Errorf("mac vector inputs = %d, want 2 (ta, tb)", len(mac.VecIns))
	}
	if len(mac.Outs) != 1 || mac.Outs[0].Kind != OutScalReg {
		t.Errorf("mac outputs = %+v, want one scalar reg", mac.Outs)
	}
	// acc reads two regs (total, partial), writes one.
	acc := v.PCUs[1]
	if len(acc.ScalIns) != 2 {
		t.Errorf("acc scalar inputs = %d, want 2", len(acc.ScalIns))
	}
}

func TestAllocateCopiesAddressOpsToPMU(t *testing.T) {
	b := dhdl.NewBuilder("addr", dhdl.Sequential)
	s := b.SRAM("s", pattern.F32, 64)
	d := b.SRAM("d", pattern.F32, 64)
	b.Compute("c", []dhdl.Counter{dhdl.C(32)}, func(ix []dhdl.Expr) []*dhdl.Assign {
		// Read address i*2+1 has 2 ops; write address i has none (1 min).
		addr := dhdl.Add(dhdl.Mul(ix[0], dhdl.CI(2)), dhdl.CI(1))
		return []*dhdl.Assign{dhdl.StoreAt(d, ix[0], dhdl.Ld(s, addr))}
	})
	v, err := Allocate(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	var sp, dp *VirtualPMU
	for _, m := range v.PMUs {
		switch m.Mem.Name {
		case "s":
			sp = m
		case "d":
			dp = m
		}
	}
	if sp == nil || dp == nil {
		t.Fatal("missing PMUs")
	}
	if sp.AddrOps != 2 {
		t.Errorf("s address ops = %d, want 2 (mul+add run in the PMU)", sp.AddrOps)
	}
	if dp.AddrOps != 1 {
		t.Errorf("d address ops = %d, want 1 (pass-through)", dp.AddrOps)
	}
	// The PCU body itself has no ops: pure data movement.
	if len(v.PCUs[0].Ops) != 0 {
		t.Errorf("PCU ops = %d, want 0 (address math belongs to PMUs)", len(v.PCUs[0].Ops))
	}
}

func TestNBufferingFromPipeline(t *testing.T) {
	// In buildDot, ta/tb are written by loads (children 0,1) and read by
	// mac (child 2): distance 2 -> 3 buffers for ta (paper: M = distance
	// between producer and consumer + 1).
	v, err := Allocate(buildDotProgram(1024, 256, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range v.PMUs {
		if m.Mem.Name == "ta" && m.NBuf < 2 {
			t.Errorf("ta NBuf = %d, want >= 2 (double buffering under Pipeline)", m.NBuf)
		}
	}
}

func TestPartitionSmallLeafFitsOnePCU(t *testing.T) {
	v, err := Allocate(buildDotProgram(1024, 256, 16))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartitionPCU(v.PCUs[0], arch.Default().PCU)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("mac needs %d PCUs, want 1", len(parts))
	}
	// mul (1 stage) + reduce (log2(16)+1 = 5 stages) = 6 stages: exactly
	// the paper's chosen PCU depth.
	if parts[0].StagesUsed != 6 {
		t.Errorf("stages used = %d, want 6", parts[0].StagesUsed)
	}
}

func TestPartitionReductionNeedsFiveStages(t *testing.T) {
	// Figure 7a: stages < 5 are infeasible for benchmarks with full
	// cross-lane reductions at 16 lanes.
	v, err := Allocate(buildDotProgram(1024, 256, 16))
	if err != nil {
		t.Fatal(err)
	}
	p := arch.Default().PCU
	p.Stages = 4
	if _, err := PartitionPCU(v.PCUs[0], p); err == nil {
		t.Error("expected 4-stage PCU to be infeasible for a 16-lane reduction")
	}
	p.Stages = 5
	if _, err := PartitionPCU(v.PCUs[0], p); err != nil {
		t.Errorf("5 stages should fit the reduction alone: %v", err)
	}
}

func TestPartitionLongPipelineSplits(t *testing.T) {
	// A deep chain of ops must split across multiple PCUs.
	b := dhdl.NewBuilder("deep", dhdl.Sequential)
	s := b.SRAM("s", pattern.F32, 64)
	d := b.SRAM("d", pattern.F32, 64)
	b.Compute("c", []dhdl.Counter{dhdl.CPar(64, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
		v := dhdl.Ld(s, ix[0])
		for i := 0; i < 20; i++ {
			v = dhdl.Add(dhdl.Mul(v, dhdl.CF(1.5)), dhdl.CF(0.5))
		}
		return []*dhdl.Assign{dhdl.StoreAt(d, ix[0], v)}
	})
	vu, err := Allocate(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartitionPCU(vu.PCUs[0], arch.Default().PCU)
	if err != nil {
		t.Fatal(err)
	}
	// 40 ops over 6-stage PCUs: at least 7 physical units.
	if len(parts) < 7 {
		t.Errorf("40-op pipeline split into %d PCUs, want >= 7", len(parts))
	}
	for i, ph := range parts {
		if ph.StagesUsed > 6 {
			t.Errorf("partition %d uses %d stages > 6", i, ph.StagesUsed)
		}
	}
}

func TestPartitionPMUCapacitySplit(t *testing.T) {
	// A 128K-word (512 KB) tile needs multiple 256 KB PMUs.
	m := &VirtualPMU{Name: "big", Mem: &dhdl.SRAM{Name: "big", Size: 128 * 1024}, NBuf: 1, Unroll: 1, MaxConcurrentReads: 1}
	pm, err := PartitionPMU(m, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if pm.Copies != 2 {
		t.Errorf("512KB tile maps to %d PMUs, want 2", pm.Copies)
	}
}

func TestPartitionPMUNBufScalesCapacity(t *testing.T) {
	// 40K words double-buffered needs 80K words > 64K per PMU -> 2 PMUs.
	m := &VirtualPMU{Name: "dbuf", Mem: &dhdl.SRAM{Name: "dbuf", Size: 40 * 1024}, NBuf: 2, Unroll: 1, MaxConcurrentReads: 1}
	pm, err := PartitionPMU(m, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if pm.Copies != 2 {
		t.Errorf("double-buffered 40K-word tile maps to %d PMUs, want 2", pm.Copies)
	}
}

func TestPartitionPMUDuplicatesForConcurrentReads(t *testing.T) {
	m := &VirtualPMU{Name: "dup", Mem: &dhdl.SRAM{Name: "dup", Size: 1024}, NBuf: 1, Unroll: 1, MaxConcurrentReads: 3}
	pm, err := PartitionPMU(m, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if pm.Copies != 3 {
		t.Errorf("3 concurrent read streams map to %d PMUs, want 3 (duplication)", pm.Copies)
	}
}

func TestPartitionPMUSupportPCUs(t *testing.T) {
	m := &VirtualPMU{Name: "hairy", Mem: &dhdl.SRAM{Name: "hairy", Size: 64}, NBuf: 1, Unroll: 1, AddrOps: 9, MaxConcurrentReads: 1}
	pm, err := PartitionPMU(m, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	// 9 address ops, 4 fit the PMU, 5 spill into one 6-stage PCU.
	if pm.SupportPCUs != 1 {
		t.Errorf("support PCUs = %d, want 1", pm.SupportPCUs)
	}
}

func TestCompileEndToEnd(t *testing.T) {
	mp, err := CompileOpts(context.Background(), buildDotProgram(4096, 512, 16), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Util.PCUs == 0 || mp.Util.PMUs == 0 || mp.Util.AGs == 0 {
		t.Errorf("utilization has zero entries: %+v", mp.Util)
	}
	if mp.Util.PCUFrac <= 0 || mp.Util.PCUFrac > 1 {
		t.Errorf("PCU fraction %v out of (0,1]", mp.Util.PCUFrac)
	}
	for leaf, lm := range mp.Leaves {
		if lm.PipelineDepth <= 0 {
			t.Errorf("leaf %s has pipeline depth %d", leaf.Name, lm.PipelineDepth)
		}
	}
	s := mp.Summary()
	for _, want := range []string{"mac", "ta", "PCUs"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestCompileUnrollMultipliesUnits(t *testing.T) {
	build := func(par int) *dhdl.Program {
		b := dhdl.NewBuilder("unroll", dhdl.Sequential)
		s := b.SRAM("s", pattern.F32, 64)
		d := b.SRAM("d", pattern.F32, 64)
		b.Pipe("outer", []dhdl.Counter{dhdl.CPar(8, par)}, func(ix []dhdl.Expr) {
			b.Compute("c", []dhdl.Counter{dhdl.CPar(64, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
				return []*dhdl.Assign{dhdl.StoreAt(d, jx[0], dhdl.Add(dhdl.Ld(s, jx[0]), dhdl.CF(1)))}
			})
		})
		return b.MustBuild()
	}
	m1, err := CompileOpts(context.Background(), build(1), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := CompileOpts(context.Background(), build(4), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if m4.Util.PCUs != 4*m1.Util.PCUs {
		t.Errorf("par=4 uses %d PCUs, par=1 uses %d; want 4x", m4.Util.PCUs, m1.Util.PCUs)
	}
}

func TestCompileRejectsOversizedDesign(t *testing.T) {
	small := arch.Default()
	small.Chip.Rows, small.Chip.Cols = 1, 2 // one PCU, one PMU
	p := buildDotProgram(4096, 512, 16)
	if _, err := CompileOpts(context.Background(), p, Options{Params: small}); err == nil {
		t.Error("expected failure on a 1x2 chip")
	}
}

func TestPlacementAssignsDistinctSlots(t *testing.T) {
	mp, err := CompileOpts(context.Background(), buildDotProgram(4096, 512, 16), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]string{}
	for _, nd := range mp.Netlist.Nodes {
		if nd.Kind == NodeAG {
			continue
		}
		key := [2]int{nd.X, nd.Y}
		if prev, ok := seen[key]; ok {
			t.Errorf("nodes %s and %s share slot %v", prev, nd.Name, key)
		}
		seen[key] = nd.Name
		// Checkerboard discipline.
		isPCUSlot := (nd.X+nd.Y)%2 == 0
		if (nd.Kind == NodePCU) != isPCUSlot {
			t.Errorf("node %s of kind %d at %v violates checkerboard", nd.Name, nd.Kind, key)
		}
	}
}

func TestRouteHopsManhattan(t *testing.T) {
	a := &Node{X: 0, Y: 0}
	b := &Node{X: 3, Y: 2}
	if got := RouteHops(a, b); got != 5 {
		t.Errorf("hops = %d, want 5", got)
	}
}

func TestReduceStages(t *testing.T) {
	cases := []struct{ lanes, want int }{{1, 1}, {2, 2}, {4, 3}, {16, 5}, {32, 6}}
	for _, c := range cases {
		if got := reduceStages(c.lanes); got != c.want {
			t.Errorf("reduceStages(%d) = %d, want %d", c.lanes, got, c.want)
		}
	}
}

func TestPartitionRespectsVectorInLimit(t *testing.T) {
	// A leaf reading 5 distinct SRAMs cannot fit a 3-vector-input PCU in
	// one partition; with enough of everything else it must split, and
	// with vector inputs capped at 1 it is infeasible (the op itself has
	// two vector operands).
	b := dhdl.NewBuilder("wide", dhdl.Sequential)
	var srams []*dhdl.SRAM
	for i := 0; i < 5; i++ {
		srams = append(srams, b.SRAM(string(rune('a'+i)), pattern.F32, 64))
	}
	d := b.SRAM("d", pattern.F32, 64)
	b.Compute("c", []dhdl.Counter{dhdl.CPar(64, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
		v := dhdl.Ld(srams[0], ix[0])
		for _, s := range srams[1:] {
			v = dhdl.Add(v, dhdl.Ld(s, ix[0]))
		}
		return []*dhdl.Assign{dhdl.StoreAt(d, ix[0], v)}
	})
	vu, err := Allocate(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	p := arch.Default().PCU
	parts, err := PartitionPCU(vu.PCUs[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Errorf("5-input leaf fit %d partitions, want >= 2 with 3 vector ins", len(parts))
	}
	for i, ph := range parts {
		if ph.VecIns > p.VectorIns {
			t.Errorf("partition %d uses %d vector ins > %d", i, ph.VecIns, p.VectorIns)
		}
	}
	p.VectorIns = 1
	if _, err := PartitionPCU(vu.PCUs[0], p); err == nil {
		t.Error("expected infeasibility with 1 vector input")
	}
}

func TestVirtualString(t *testing.T) {
	v, err := Allocate(buildDotProgram(1024, 256, 16))
	if err != nil {
		t.Fatal(err)
	}
	if s := v.String(); !strings.Contains(s, "2 PCUs") {
		t.Errorf("String() = %q", s)
	}
}
