package compiler

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"plasticine/internal/arch"
)

func dotMapping(t *testing.T) *Mapping {
	t.Helper()
	m, err := CompileOpts(context.Background(), buildDotProgram(4096, 512, 16), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBitstreamStructure(t *testing.T) {
	bs := GenerateBitstream(dotMapping(t))
	if bs.Program != "dot" {
		t.Errorf("program = %q", bs.Program)
	}
	if bs.Grid != [2]int{16, 8} {
		t.Errorf("grid = %v", bs.Grid)
	}
	if len(bs.PCUs) < 2 {
		t.Fatalf("got %d PCU configs, want >= 2", len(bs.PCUs))
	}
	if len(bs.PMUs) != 2 {
		t.Errorf("got %d PMU configs, want 2 (ta, tb)", len(bs.PMUs))
	}
	if len(bs.AGs) != 2 {
		t.Errorf("got %d AG configs, want 2 (loadA, loadB)", len(bs.AGs))
	}
	var mac *PCUConfig
	for i := range bs.PCUs {
		if bs.PCUs[i].Leaf == "mac" {
			mac = &bs.PCUs[i]
		}
	}
	if mac == nil {
		t.Fatal("no config for the mac leaf")
	}
	if mac.Lanes != 16 {
		t.Errorf("mac lanes = %d", mac.Lanes)
	}
	// mul then cross-lane reduce-add.
	if len(mac.Stages) != 2 || mac.Stages[0].Op != "mul" || mac.Stages[1].Op != "reduce_add" {
		t.Errorf("mac stage program = %+v, want [mul, reduce_add]", mac.Stages)
	}
	if len(mac.VectorIns) != 2 {
		t.Errorf("mac vector ins = %v, want [ta tb]", mac.VectorIns)
	}
	if len(mac.ScalarOuts) != 1 || mac.ScalarOuts[0] != "partial" {
		t.Errorf("mac scalar outs = %v, want [partial]", mac.ScalarOuts)
	}
	if len(mac.Counters) != 1 || mac.Counters[0].Par != 16 {
		t.Errorf("mac counters = %+v", mac.Counters)
	}
}

func TestBitstreamPMUAndAGConfigs(t *testing.T) {
	bs := GenerateBitstream(dotMapping(t))
	for _, p := range bs.PMUs {
		if p.SizeWords != 512 {
			t.Errorf("%s: size %d words, want 512", p.ID, p.SizeWords)
		}
		if p.NBuf < 2 {
			t.Errorf("%s: NBuf %d, want >= 2 (double-buffered under Pipeline)", p.ID, p.NBuf)
		}
		if p.Banking != "strided" {
			t.Errorf("%s: banking %q", p.ID, p.Banking)
		}
	}
	for _, a := range bs.AGs {
		if a.Sparse || a.Write {
			t.Errorf("%s: dense load misconfigured: %+v", a.ID, a)
		}
		if a.Side != "left" && a.Side != "right" {
			t.Errorf("%s: side %q", a.ID, a.Side)
		}
	}
}

func TestBitstreamRoundTrip(t *testing.T) {
	bs := GenerateBitstream(dotMapping(t))
	var buf bytes.Buffer
	if err := bs.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var got *Bitstream
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bs, got) {
		t.Error("bitstream did not survive an encode/decode round trip")
	}
}

func TestAssemblyListing(t *testing.T) {
	asm := GenerateBitstream(dotMapping(t)).Assembly()
	for _, want := range []string{
		"; program dot",
		"pcu mac.pcu0.0",
		"reduce_add",
		"pmu ta.pmu0",
		"ag loadA.ag0",
		"ctr 0..512 step 1 par 16",
	} {
		if !strings.Contains(asm, want) {
			t.Errorf("assembly missing %q:\n%s", want, asm)
		}
	}
}

func TestStageProgramRegistersWithinBudget(t *testing.T) {
	// Register allocation must stay within the architecture's register
	// file for every benchmark-sized partition; exercise a deep pipeline.
	u := deepUnit(t, 40)
	parts, err := PartitionPCU(u, arch.Default().PCU)
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range parts {
		_, maxReg := pcuStageProgram(u, part)
		if maxReg > arch.Default().PCU.Registers {
			t.Errorf("partition %d uses %d registers > %d", i, maxReg, arch.Default().PCU.Registers)
		}
	}
}

// deepUnit builds a virtual PCU with a chain of n dependent ops.
func deepUnit(t *testing.T, n int) *VirtualPCU {
	t.Helper()
	u := &VirtualPCU{Name: "deep", Lanes: 16, Unroll: 1}
	u.VecIns = []VecInput{{}}
	prev := Operand{Kind: VecIn, ID: 0}
	for i := 0; i < n; i++ {
		op := &VOp{ID: i, Kind: ALUOp, Args: []Operand{prev, prev}}
		u.Ops = append(u.Ops, op)
		prev = Operand{Kind: OpResult, ID: i}
	}
	u.Outs = []VOut{{Kind: OutVecSRAM, Src: prev}}
	return u
}

func TestRegAllocReusesFreedRegisters(t *testing.T) {
	ra := newRegAlloc()
	ra.lastUse["a"] = 0
	r0 := ra.claim("a")
	ra.releaseDead(0)
	r1 := ra.claim("b")
	if r0 != r1 {
		t.Errorf("freed register not reused: %d then %d", r0, r1)
	}
}
