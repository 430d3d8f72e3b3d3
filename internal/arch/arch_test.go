package arch

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

// TestKeyNamesEveryField: cache keys render params with Key, so two
// designs that differ in any one field must render differently. String,
// a summary, fails this for register, port, AG and FIFO counts.
func TestKeyNamesEveryField(t *testing.T) {
	base := Default()
	groups := reflect.ValueOf(&base).Elem()
	for g := 0; g < groups.NumField(); g++ {
		for f := 0; f < groups.Field(g).NumField(); f++ {
			p := base
			field := reflect.ValueOf(&p).Elem().Field(g).Field(f)
			field.SetInt(field.Int() + 1)
			name := groups.Type().Field(g).Name + "." + groups.Field(g).Type().Field(f).Name
			if p.Key() == base.Key() {
				t.Errorf("changing %s leaves Key unchanged: %s", name, p.Key())
			}
		}
	}
}

func TestDefaultMatchesTable3(t *testing.T) {
	p := Default()
	if p.PCU.Lanes != 16 || p.PCU.Stages != 6 || p.PCU.Registers != 6 {
		t.Errorf("PCU datapath = %d lanes, %d stages, %d regs; Table 3 says 16/6/6", p.PCU.Lanes, p.PCU.Stages, p.PCU.Registers)
	}
	if p.PCU.ScalarIns != 6 || p.PCU.ScalarOuts != 5 || p.PCU.VectorIns != 3 || p.PCU.VectorOuts != 3 {
		t.Errorf("PCU IO = %d/%d scalar, %d/%d vector; Table 3 says 6/5 and 3/3",
			p.PCU.ScalarIns, p.PCU.ScalarOuts, p.PCU.VectorIns, p.PCU.VectorOuts)
	}
	if got := p.ScratchpadBytes(); got != 256*1024 {
		t.Errorf("PMU scratchpad = %d bytes, want 256KB", got)
	}
	if p.NumPCUs() != 64 || p.NumPMUs() != 64 {
		t.Errorf("array = %d PCUs, %d PMUs; want 64/64", p.NumPCUs(), p.NumPMUs())
	}
	if got := p.ScratchpadBytes() * p.NumPMUs(); got != 16*1024*1024 {
		t.Errorf("total scratchpad = %d bytes, want 16MB (Section 4.2)", got)
	}
}

func TestPeakFLOPSMatchesPaper(t *testing.T) {
	// Section 4.2: "peak floating point performance of 12.3 single-precision
	// TFLOPS" = 64 PCUs * 96 FUs * 1 GHz * 2 (FMA).
	got := Default().PeakFLOPS() / 1e12
	if !almostEqual(got, 12.288, 0.01) {
		t.Errorf("peak = %.3f TFLOPS, want 12.288", got)
	}
}

func TestPeakBandwidthMatchesPaper(t *testing.T) {
	// Section 4.2: 4x DDR3-1600 channels, 51.2 GB/s theoretical peak.
	got := Default().PeakDRAMBandwidth() / 1e9
	if !almostEqual(got, 51.2, 0.001) {
		t.Errorf("peak DRAM bandwidth = %.1f GB/s, want 51.2", got)
	}
}

func TestAreaMatchesTable5(t *testing.T) {
	a := Area(Default())
	cases := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"PCU FUs", a.PCUFUs, 0.622, 0.001},
		{"PCU registers", a.PCURegisters, 0.144, 0.001},
		{"PCU FIFOs", a.PCUFIFOs, 0.082, 0.001},
		{"PCU total", a.PCUTotal(), 0.849, 0.002},
		{"PMU scratchpad", a.PMUScratchpad, 0.477, 0.001},
		{"PMU FIFOs", a.PMUFIFOs, 0.024, 0.001},
		{"PMU registers", a.PMURegisters, 0.023, 0.001},
		{"PMU FUs", a.PMUFUs, 0.007, 0.001},
		{"PMU total", a.PMUTotal(), 0.532, 0.002},
		{"interconnect", a.Interconnect, 18.796, 0.01},
		{"memory controller", a.MemoryController, 5.616, 0.01},
		{"chip", a.ChipTotal(), 112.8, 0.3},
	}
	for _, c := range cases {
		if !almostEqual(c.got, c.want, c.tol) {
			t.Errorf("%s area = %.4f mm^2, want %.4f (Table 5)", c.name, c.got, c.want)
		}
	}
}

func TestAreaFractionsMatchTable5(t *testing.T) {
	a := Area(Default())
	total := a.ChipTotal()
	fr := func(x float64) float64 { return 100 * x / total }
	if got := fr(float64(a.NumPCUs) * a.PCUTotal()); !almostEqual(got, 48.16, 0.5) {
		t.Errorf("PCU fraction = %.2f%%, want 48.16%%", got)
	}
	if got := fr(float64(a.NumPMUs) * a.PMUTotal()); !almostEqual(got, 30.2, 0.5) {
		t.Errorf("PMU fraction = %.2f%%, want 30.2%%", got)
	}
	if got := fr(a.Interconnect); !almostEqual(got, 16.66, 0.5) {
		t.Errorf("interconnect fraction = %.2f%%, want 16.66%%", got)
	}
	if got := fr(a.MemoryController); !almostEqual(got, 4.98, 0.5) {
		t.Errorf("memory controller fraction = %.2f%%, want 4.98%%", got)
	}
}

func TestPCUAreaMonotonicInEachParameter(t *testing.T) {
	chip := Default().Chip
	base := Default().PCU
	grow := []func(*PCUParams){
		func(p *PCUParams) { p.Lanes *= 2 },
		func(p *PCUParams) { p.Stages++ },
		func(p *PCUParams) { p.Registers++ },
		func(p *PCUParams) { p.ScalarIns++ },
		func(p *PCUParams) { p.VectorIns++ },
		func(p *PCUParams) { p.VectorOuts++ },
	}
	baseArea := PCUArea(base, chip)
	for i, g := range grow {
		pp := base
		g(&pp)
		if got := PCUArea(pp, chip); got <= baseArea {
			t.Errorf("grow[%d]: area %.5f not greater than base %.5f", i, got, baseArea)
		}
	}
}

func TestPMUAreaDominatedBySRAM(t *testing.T) {
	a := Area(Default())
	if a.PMUScratchpad/a.PMUTotal() < 0.85 {
		t.Errorf("scratchpad fraction of PMU = %.2f, want ~0.897 (Table 5)", a.PMUScratchpad/a.PMUTotal())
	}
}

func TestMaxPowerNearPaper(t *testing.T) {
	// Abstract: "consumes a maximum power of 49 W".
	got := MaxPower(Default())
	if got < 45 || got > 53 {
		t.Errorf("max power = %.1f W, want ~49 W", got)
	}
}

func TestPowerMonotonicInActivity(t *testing.T) {
	p := Default()
	f := func(u0, u1 float64) bool {
		a := math.Abs(math.Mod(u0, 1))
		b := math.Abs(math.Mod(u1, 1))
		if a > b {
			a, b = b, a
		}
		lo := Power(p, Activity{PCUUtil: a, PMUUtil: a, AGUtil: a, FUUtil: a})
		hi := Power(p, Activity{PCUUtil: b, PMUUtil: b, AGUtil: b, FUUtil: b})
		return lo <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerGatingIdleChip(t *testing.T) {
	p := Default()
	idle := Power(p, Activity{})
	if !almostEqual(idle, staticPowerW, 1e-9) {
		t.Errorf("idle power = %.2f W, want static only %.2f W", idle, staticPowerW)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mut := []func(*Params){
		func(p *Params) { p.PCU.Lanes = 0 },
		func(p *Params) { p.PCU.Stages = 17 },
		func(p *Params) { p.PCU.Registers = 0 },
		func(p *Params) { p.PCU.ScalarIns = 0 },
		func(p *Params) { p.PCU.ScalarOuts = 7 },
		func(p *Params) { p.PCU.VectorIns = 11 },
		func(p *Params) { p.PCU.VectorOuts = 0 },
		func(p *Params) { p.PMU.Banks = 0 },
		func(p *Params) { p.PMU.BankKB = 0 },
		func(p *Params) { p.PMU.ScalarOuts = -1 },
		func(p *Params) { p.Chip.Rows = 0 },
		func(p *Params) { p.Chip.Rows = 3; p.Chip.Cols = 3 },
		func(p *Params) { p.Chip.DDRChannels = 0 },
		func(p *Params) { p.Chip.ClockMHz = 0 },
		func(p *Params) { p.Chip.VectorFIFODepth = 1 },
	}
	for i, m := range mut {
		p := Default()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error, got nil", i)
		}
	}
}

func TestStringMentionsGeometry(t *testing.T) {
	s := Default().String()
	for _, want := range []string{"16x8", "64 PCUs", "64 PMUs", "1000 MHz"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestASICAreasCheaperThanReconfigurable(t *testing.T) {
	if ASICFUArea() >= areaFU {
		t.Error("ASIC FU should be cheaper than reconfigurable FU")
	}
	if ASICRegArea() >= areaPipelineReg {
		t.Error("ASIC register should be cheaper than pipeline register")
	}
	if ASICSRAMArea(256) >= 0.477 {
		t.Error("ASIC SRAM should be cheaper than configurable scratchpad")
	}
}

func TestAreaScalesWithGrid(t *testing.T) {
	small := Default()
	small.Chip.Rows, small.Chip.Cols = 4, 8
	if Area(small).ChipTotal() >= Area(Default()).ChipTotal() {
		t.Error("4x8 chip should be smaller than 16x8 chip")
	}
}

func TestPMUAreaMonotonicInCapacity(t *testing.T) {
	chip := Default().Chip
	base := Default().PMU
	bigger := base
	bigger.BankKB *= 2
	if PMUArea(bigger, chip) <= PMUArea(base, chip) {
		t.Error("doubling bank size should grow PMU area")
	}
	moreBanks := base
	moreBanks.Banks *= 2
	if PMUArea(moreBanks, chip) <= PMUArea(base, chip) {
		t.Error("doubling banks should grow PMU area")
	}
}

func TestSwitchAreaScalesWithLanes(t *testing.T) {
	if SwitchArea(32) <= SwitchArea(16) {
		t.Error("wider vector network should cost more switch area")
	}
	// Control+scalar portion survives at tiny widths.
	if SwitchArea(1) <= 0 {
		t.Error("switch area must stay positive")
	}
}

func TestMaxPowerScalesWithChip(t *testing.T) {
	small := Default()
	small.Chip.Rows, small.Chip.Cols = 4, 8
	if MaxPower(small) >= MaxPower(Default()) {
		t.Error("a quarter chip should have a lower power envelope")
	}
	f := func(u uint8) bool {
		frac := float64(u%101) / 100
		p := Power(Default(), Activity{PCUUtil: frac, PMUUtil: frac, AGUtil: frac, FUUtil: frac})
		return p >= 0 && p <= MaxPower(Default())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
