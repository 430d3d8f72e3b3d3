package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"plasticine/internal/arch"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=7, pcu=4, pmu=2, sw=1, chan=1, spike=0.01, retry=0.001")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 7, PCUs: 4, PMUs: 2, Switches: 1, Chans: 1,
		SpikeProb: 0.01, TransientProb: 0.001}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("parsed %+v, want %+v", spec, want)
	}
	if s, err := ParseSpec(""); err != nil || !s.Zero() {
		t.Errorf("empty spec: %+v, %v", s, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"pcu", "pcu=-1", "pcu=x", "spike=1.5", "retry=-0.1", "frobs=3", "seed=abc",
	} {
		if _, err := ParseSpec(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSpec(%q): want ErrBadSpec, got %v", bad, err)
		}
	}
}

func TestNewPlanDeterministic(t *testing.T) {
	params := arch.Default()
	spec := Spec{Seed: 42, PCUs: 6, PMUs: 4, Switches: 3, Chans: 2,
		SpikeProb: 0.01, TransientProb: 0.001}
	a, err := NewPlan(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed produced different plans:\n%s\n%s", a, b)
	}
	spec.Seed = 43
	c, err := NewPlan(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Errorf("different seeds produced identical plans: %s", a)
	}
}

func TestNewPlanCounts(t *testing.T) {
	params := arch.Default()
	p, err := NewPlan(Spec{Seed: 1, PCUs: 5, PMUs: 3}, params)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumDisabledPCUs() != 5 || p.NumDisabledPMUs() != 3 {
		t.Errorf("disabled %d/%d, want 5/3", p.NumDisabledPCUs(), p.NumDisabledPMUs())
	}
	// Disabled PCU coordinates must be PCU slots ((x+y) even) and vice versa.
	npcu, npmu := 0, 0
	for y := 0; y < params.Chip.Rows; y++ {
		for x := 0; x < params.Chip.Cols; x++ {
			if p.PCUDisabled(x, y) {
				npcu++
				if (x+y)%2 != 0 {
					t.Errorf("PCU fault at PMU slot (%d,%d)", x, y)
				}
			}
			if p.PMUDisabled(x, y) {
				npmu++
				if (x+y)%2 != 1 {
					t.Errorf("PMU fault at PCU slot (%d,%d)", x, y)
				}
			}
		}
	}
	if npcu != 5 || npmu != 3 {
		t.Errorf("grid scan found %d/%d faults, want 5/3", npcu, npmu)
	}
}

func TestNewPlanRejectsOversized(t *testing.T) {
	params := arch.Default()
	for _, spec := range []Spec{
		{PCUs: params.NumPCUs() + 1},
		{PMUs: params.NumPMUs() + 1},
		{Switches: params.Chip.Cols*params.Chip.Rows + 1},
		{Chans: params.Chip.DDRChannels + 1},
	} {
		if _, err := NewPlan(spec, params); !errors.Is(err, ErrBadSpec) {
			t.Errorf("NewPlan(%+v): want ErrBadSpec, got %v", spec, err)
		}
	}
}

func TestNilPlanIsPristine(t *testing.T) {
	var p *Plan
	if p.PCUDisabled(0, 0) || p.PMUDisabled(0, 1) || p.SwitchDisabled(1, 1) {
		t.Error("nil plan reports disabled units")
	}
	if p.NumDisabledPCUs() != 0 || p.NumDisabledPMUs() != 0 {
		t.Error("nil plan reports nonzero counts")
	}
	if p.HasSwitchFaults() {
		t.Error("nil plan reports faults")
	}
	if p.DRAMFaults() != nil {
		t.Error("nil plan yields DRAM faults")
	}
}

func TestDRAMFaultsOnlyWhenRequested(t *testing.T) {
	params := arch.Default()
	fabricOnly, err := NewPlan(Spec{Seed: 9, PCUs: 2}, params)
	if err != nil {
		t.Fatal(err)
	}
	if fabricOnly.DRAMFaults() != nil {
		t.Error("fabric-only plan must not arm the DRAM fault model")
	}
	mem, err := NewPlan(Spec{Seed: 9, Chans: 1, TransientProb: 0.5}, params)
	if err != nil {
		t.Fatal(err)
	}
	df := mem.DRAMFaults()
	if df == nil {
		t.Fatal("memory plan yielded no DRAM faults")
	}
	down := 0
	for _, d := range df.Down {
		if d {
			down++
		}
	}
	if down != 1 {
		t.Errorf("downed channels = %d, want 1", down)
	}
	if df.MaxRetries != 3 || df.RetryBackoff != 16 {
		t.Errorf("retry defaults not applied: %+v", df)
	}
	if !strings.Contains(mem.String(), "chan[") {
		t.Errorf("plan string missing channel section: %s", mem)
	}
}
