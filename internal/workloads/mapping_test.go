package workloads

import (
	"context"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
)

// TestMappingProperties pins down per-benchmark compilation facts the
// evaluation narrative relies on (Section 4.5): which leaves carry
// reduction trees, which memories are duplicated for random reads, which
// leaves pay bank-conflict or random-write initiation intervals.
func TestMappingProperties(t *testing.T) {
	compileOf := func(t *testing.T, b Benchmark) *compiler.Mapping {
		t.Helper()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	leafII := func(m *compiler.Mapping, name string) int {
		for leaf, lm := range m.Leaves {
			if leaf.Name == name {
				return lm.II
			}
		}
		t.Fatalf("leaf %s not found", name)
		return 0
	}
	banking := func(m *compiler.Mapping, name string) dhdl.BankingMode {
		for _, pm := range m.Virtual.PMUs {
			if pm.Mem.Name == name {
				return pm.Banking
			}
		}
		t.Fatalf("SRAM %s not found", name)
		return 0
	}

	t.Run("InnerProductReductionDepth", func(t *testing.T) {
		m := compileOf(t, NewInnerProduct())
		for _, pc := range m.Part.PCUs {
			if pc.V.Name != "mac" {
				continue
			}
			if pc.V.Reduces != 1 {
				t.Errorf("mac reduces = %d, want 1", pc.V.Reduces)
			}
			// mul + 5-stage reduction tree = 6 stages: the paper's PCU
			// depth rationale.
			if got := pc.Parts[0].StagesUsed; got != 6 {
				t.Errorf("mac stages = %d, want 6", got)
			}
		}
	})

	t.Run("StreamingLeavesHaveUnitII", func(t *testing.T) {
		for _, b := range []Benchmark{NewInnerProduct(), NewBlackScholes(), NewTPCHQ6()} {
			m := compileOf(t, b)
			for leaf, lm := range m.Leaves {
				if leaf.Kind == dhdl.ComputeKind && lm.II != 1 {
					t.Errorf("%s/%s: II = %d, want 1 (conflict-free streaming)", b.Name(), leaf.Name, lm.II)
				}
			}
		}
	})

	t.Run("SparseAccumulatorsPayRandomWriteII", func(t *testing.T) {
		m := compileOf(t, NewSMDV())
		if ii := leafII(m, "acc"); ii <= 1 {
			t.Errorf("SMDV acc II = %d, want > 1 (sequentialized random writes)", ii)
		}
		m = compileOf(t, NewPageRank())
		if ii := leafII(m, "contrib"); ii <= 1 {
			t.Errorf("PageRank contrib II = %d, want > 1", ii)
		}
	})

	t.Run("GatherTargetsUseDuplicationBanking", func(t *testing.T) {
		m := compileOf(t, NewSMDV())
		if got := banking(m, "txg"); got != dhdl.Duplication {
			t.Errorf("SMDV gathered-value tile banking = %v, want duplication", got)
		}
		m = compileOf(t, NewKmeans())
		// Kmeans point data is read lane-sequentially: strided is right.
		if got := banking(m, "tx"); got != dhdl.Strided {
			t.Errorf("Kmeans tx banking = %v, want strided", got)
		}
	})

	t.Run("GEMMDoubleBuffersInputTiles", func(t *testing.T) {
		m := compileOf(t, NewGEMM())
		found := false
		for s, mm := range m.Mems {
			if s.Name == "tC" {
				found = true
				if mm.NBuf < 2 {
					t.Errorf("tC NBuf = %d, want >= 2 (pipelined with store)", mm.NBuf)
				}
			}
		}
		if !found {
			t.Fatal("tC not mapped")
		}
	})

	t.Run("CNNUsesSubstantialFabric", func(t *testing.T) {
		m := compileOf(t, NewCNN())
		if m.Util.PCUFrac < 0.25 {
			t.Errorf("CNN PCU utilization %.2f, want >= 0.25 (the paper's CNN fills half the chip)", m.Util.PCUFrac)
		}
	})

	t.Run("BFSVisitIsSequentialLane", func(t *testing.T) {
		m := compileOf(t, NewBFS())
		for leaf, lm := range m.Leaves {
			if leaf.Name == "visit" && lm.Lanes != 1 {
				t.Errorf("visit lanes = %d, want 1 (serialized random writes)", lm.Lanes)
			}
		}
	})
}

// TestBitstreamsGenerateForAllBenchmarks ensures every benchmark's mapping
// serialises to a configuration, the same one every time: register
// allocation must not depend on map iteration order.
func TestBitstreamsGenerateForAllBenchmarks(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
			if err != nil {
				t.Fatal(err)
			}
			bs := compiler.GenerateBitstream(m)
			if len(bs.PCUs) == 0 {
				t.Error("no PCU configs")
			}
			asm := bs.Assembly()
			if len(asm) < 100 {
				t.Errorf("assembly suspiciously short: %d bytes", len(asm))
			}
			for i := 0; i < 8; i++ {
				if again := compiler.GenerateBitstream(m).Assembly(); again != asm {
					t.Fatalf("bitstream changed between generations of one mapping:\n%s\n---\n%s", asm, again)
				}
			}
		})
	}
}

// TestCompileLeavesProgramBanking: compiling BFS picks duplication banking
// for tlev, which lanes read at data-dependent addresses, yet every SRAM of
// the program keeps the mode it was declared with; the choice lives in the
// mapping and reaches the bitstream from there.
func TestCompileLeavesProgramBanking(t *testing.T) {
	p, err := NewBFS().Build()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[*dhdl.SRAM]dhdl.BankingMode{}
	for _, s := range p.SRAMs {
		declared[s] = s.Banking
	}
	m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.SRAMs {
		if s.Banking != declared[s] {
			t.Errorf("compile changed %s banking from %v to %v", s.Name, declared[s], s.Banking)
		}
	}
	found := false
	for _, pm := range compiler.GenerateBitstream(m).PMUs {
		if pm.Mem == "tlev" {
			found = true
			if pm.Banking != "duplication" {
				t.Errorf("bitstream tlev banking = %s, want duplication", pm.Banking)
			}
		}
	}
	if !found {
		t.Error("bitstream has no PMU for tlev")
	}
}
