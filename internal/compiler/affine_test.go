package compiler

import (
	"context"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

func TestStrideConflictFactor(t *testing.T) {
	cases := []struct {
		stride int64
		banks  int
		want   int
	}{
		{0, 16, 1}, // broadcast
		{1, 16, 1}, // conflict-free
		{3, 16, 1}, // coprime
		{2, 16, 2}, // half the banks
		{8, 16, 8}, // two banks
		{16, 16, 16},
		{-2, 16, 2}, // magnitude
	}
	for _, c := range cases {
		if got := StrideConflictFactor(c.stride, c.banks); got != c.want {
			t.Errorf("StrideConflictFactor(%d, %d) = %d, want %d", c.stride, c.banks, got, c.want)
		}
	}
}

// TestBankingForSelectsDuplicationOnGather: allocation gives a lane-affine
// read a strided PMU and a per-lane gather a duplication PMU, and records
// the choice on the VirtualPMU, not on the program's SRAM.
func TestBankingForSelectsDuplicationOnGather(t *testing.T) {
	b := dhdl.NewBuilder("gather", dhdl.Sequential)
	src := b.SRAM("src", pattern.F32, 64)
	tbl := b.SRAM("tbl", pattern.F32, 64)
	dst := b.SRAM("dst", pattern.F32, 64)
	b.Compute("g", []dhdl.Counter{dhdl.CPar(64, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
		return []*dhdl.Assign{dhdl.StoreAt(dst, ix[0],
			dhdl.Add(dhdl.Ld(src, ix[0]), dhdl.Ld(tbl, dhdl.Ld(src, ix[0]))))}
	})
	v, err := Allocate(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	got := map[*dhdl.SRAM]dhdl.BankingMode{}
	for _, pm := range v.PMUs {
		got[pm.Mem] = pm.Banking
	}
	if mode, ok := got[src]; !ok || mode != dhdl.Strided {
		t.Errorf("streaming access got %v (allocated %v), want strided", mode, ok)
	}
	if mode, ok := got[tbl]; !ok || mode != dhdl.Duplication {
		t.Errorf("per-lane gather got %v (allocated %v), want duplication", mode, ok)
	}
	if tbl.Banking != dhdl.Strided {
		t.Errorf("allocation rewrote the gathered SRAM's declared banking to %v", tbl.Banking)
	}
}

func TestCompileSetsIIFromBankConflicts(t *testing.T) {
	// Lanes read addr i*8 over 16 banks -> gcd 8 -> II 8.
	build := func(stride int32) *dhdl.Program {
		b := dhdl.NewBuilder("conf", dhdl.Sequential)
		src := b.SRAM("src", pattern.F32, 8192)
		dst := b.SRAM("dst", pattern.F32, 1024)
		b.Compute("c", []dhdl.Counter{dhdl.CPar(1024, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.StoreAt(dst, ix[0],
				dhdl.Ld(src, dhdl.Mul(ix[0], dhdl.CI(stride))))}
		})
		return b.MustBuild()
	}
	leafII := func(p *dhdl.Program) int {
		m, err := CompileOpts(context.Background(), p, Options{Params: arch.Default()})
		if err != nil {
			t.Fatal(err)
		}
		for leaf, lm := range m.Leaves {
			if leaf.Name == "c" {
				return lm.II
			}
		}
		t.Fatal("leaf not found")
		return 0
	}
	if ii := leafII(build(1)); ii != 1 {
		t.Errorf("stride-1 II = %d, want 1", ii)
	}
	if ii := leafII(build(8)); ii != 8 {
		t.Errorf("stride-8 II = %d, want 8 (bank conflicts)", ii)
	}
}

func TestCompileAutoSelectsDuplicationBanking(t *testing.T) {
	b := dhdl.NewBuilder("dup", dhdl.Sequential)
	idx := b.SRAM("idx", pattern.I32, 1024)
	tbl := b.SRAM("tbl", pattern.F32, 1024)
	dst := b.SRAM("dst", pattern.F32, 1024)
	b.Compute("g", []dhdl.Counter{dhdl.CPar(1024, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
		return []*dhdl.Assign{dhdl.StoreAt(dst, ix[0], dhdl.Ld(tbl, dhdl.Ld(idx, ix[0])))}
	})
	m, err := CompileOpts(context.Background(), b.MustBuild(), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, pm := range GenerateBitstream(m).PMUs {
		got[pm.Mem] = pm.Banking
	}
	if got["tbl"] != "duplication" {
		t.Errorf("on-chip gather target banking = %q, want duplication (compiler-selected)", got["tbl"])
	}
	if got["dst"] != "strided" {
		t.Errorf("streamed destination banking = %q, want strided", got["dst"])
	}
	if tbl.Banking != dhdl.Strided || idx.Banking != dhdl.Strided {
		t.Errorf("compile rewrote declared banking: tbl %v, idx %v", tbl.Banking, idx.Banking)
	}
}
