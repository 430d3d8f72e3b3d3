package arch

// Area model, seeded from the paper's 28 nm Synopsys DC synthesis results
// (Table 5). Component coefficients are derived so that the final
// architecture (Default()) reproduces the published breakdown:
//
//	PCU   0.849 mm^2 (FUs 0.622, registers 0.144, FIFOs 0.082, control 0.001)
//	PMU   0.532 mm^2 (scratchpad 0.477, FIFOs 0.024, registers 0.023,
//	                  FUs 0.007, control 0.001)
//	interconnect 18.796 mm^2, memory controller 5.616 mm^2,
//	chip total 112.796 mm^2.
//
// All areas are in mm^2 at 28 nm.
const (
	// areaFU is one 32-bit floating-point/integer functional unit:
	// 0.622 mm^2 / (16 lanes * 6 stages).
	areaFU = 0.622 / 96

	// areaPipelineReg is one 32-bit pipeline register with its SIMD-shared
	// config mux: 0.144 mm^2 / (16 lanes * 6 stages * 6 registers).
	areaPipelineReg = 0.144 / 576

	// areaPCUFIFOWord is one buffered 32-bit word of PCU input FIFO:
	// 0.082 mm^2 over 3 vector FIFOs (16 lanes x 16 deep) + 6 scalar
	// FIFOs (16 deep).
	areaPCUFIFOWord = 0.082 / (3*16*16 + 6*16)

	// areaControl is the reconfigurable control block (counters, state
	// machines, combinational lookup tables).
	areaControl = 0.001

	// areaSRAMPerKB is scratchpad SRAM including banking/buffering logic:
	// 0.477 mm^2 / 256 KB (Synopsys memory compiler fit).
	areaSRAMPerKB = 0.477 / 256

	// areaPMUFIFOWord is one word of PMU FIFO buffering; PMU FIFOs are
	// single-ported and simpler than PCU input FIFOs:
	// 0.024 mm^2 over 3 vector ins (16x16) + 4 scalar ins (16 deep).
	areaPMUFIFOWord = 0.024 / (3*16*16 + 4*16)

	// areaPMUReg is one register of the PMU scalar address datapath
	// (wider muxing for banking modes): 0.023 mm^2 / (4 stages * 6 regs).
	areaPMUReg = 0.023 / 24

	// areaScalarALU is one scalar ALU of the PMU/AG address datapath,
	// simpler than a PCU FU: 0.007 mm^2 / 4 stages.
	areaScalarALU = 0.007 / 4

	// areaSwitch is one switch box carrying all three networks (scalar,
	// vector, control) at 16-lane vector width:
	// 18.796 mm^2 / ((16+1) * (8+1)) switch boxes.
	areaSwitch = 18.796 / 153

	// switchVectorFraction is the fraction of switch area in the vector
	// network (scales with lane count); the rest is scalar + control.
	switchVectorFraction = 0.8

	// areaAG is one address generator (scalar datapath + command FIFOs).
	areaAG = 0.06

	// areaCoalescingUnit is one address-coalescing unit with its
	// coalescing cache and burst buffers: (5.616 - 34*0.06)/4.
	areaCoalescingUnit = (5.616 - 34*areaAG) / 4
)

// AreaBreakdown reports chip area by component, in mm^2.
type AreaBreakdown struct {
	PCUFUs       float64
	PCURegisters float64
	PCUFIFOs     float64
	PCUControl   float64

	PMUScratchpad float64
	PMUFIFOs      float64
	PMURegisters  float64
	PMUFUs        float64
	PMUControl    float64

	Interconnect     float64
	MemoryController float64

	NumPCUs int
	NumPMUs int
}

// PCUTotal returns the area of a single PCU.
func (a AreaBreakdown) PCUTotal() float64 {
	return a.PCUFUs + a.PCURegisters + a.PCUFIFOs + a.PCUControl
}

// PMUTotal returns the area of a single PMU.
func (a AreaBreakdown) PMUTotal() float64 {
	return a.PMUScratchpad + a.PMUFIFOs + a.PMURegisters + a.PMUFUs + a.PMUControl
}

// ChipTotal returns the whole-chip area.
func (a AreaBreakdown) ChipTotal() float64 {
	return float64(a.NumPCUs)*a.PCUTotal() + float64(a.NumPMUs)*a.PMUTotal() +
		a.Interconnect + a.MemoryController
}

// PCUArea returns the area of one PCU with the given parameters. The model
// is the one used for the paper's design-space exploration (Section 3.7):
// the sum of the control box, FUs, pipeline registers, input FIFOs and
// output crossbars.
func PCUArea(p PCUParams, chip ChipParams) float64 {
	fus := float64(p.Lanes*p.Stages) * areaFU
	regs := float64(p.Lanes*p.Stages*p.Registers) * areaPipelineReg
	fifoWords := p.VectorIns*p.Lanes*chip.VectorFIFODepth + p.ScalarIns*chip.ScalarFIFODepth
	fifos := float64(fifoWords) * areaPCUFIFOWord
	// Output crossbars scale with the number of output buses; at the final
	// parameters their cost is folded into the FIFO/control coefficients,
	// so only the marginal cost of extra outputs appears here.
	xbar := float64((p.VectorOuts-1)*p.Lanes+(p.ScalarOuts-1)) * areaPipelineReg / 2
	return fus + regs + fifos + xbar + areaControl
}

// PMUArea returns the area of one PMU with the given parameters.
func PMUArea(p PMUParams, chip ChipParams) float64 {
	sram := float64(p.BankKB*p.Banks) * areaSRAMPerKB
	fifoWords := p.VectorIns*p.Banks*chip.VectorFIFODepth + p.ScalarIns*chip.ScalarFIFODepth
	fifos := float64(fifoWords) * areaPMUFIFOWord
	regs := float64(p.Stages*p.Registers) * areaPMUReg
	fus := float64(p.Stages) * areaScalarALU
	return sram + fifos + regs + fus + areaControl
}

// SwitchArea returns the area of one switch box for a fabric whose vector
// network is laneWidth words wide.
func SwitchArea(laneWidth int) float64 {
	vector := areaSwitch * switchVectorFraction * float64(laneWidth) / 16
	other := areaSwitch * (1 - switchVectorFraction)
	return vector + other
}

// InterconnectArea returns the area of the full static interconnect: a
// (cols+1) x (rows+1) grid of switch boxes (Figure 5).
func InterconnectArea(p Params) float64 {
	n := (p.Chip.Cols + 1) * (p.Chip.Rows + 1)
	return float64(n) * SwitchArea(p.PCU.Lanes)
}

// MemoryControllerArea returns the area of the AGs plus coalescing units.
func MemoryControllerArea(p Params) float64 {
	return float64(p.NumAGs())*areaAG + float64(p.Chip.CoalescingUnit)*areaCoalescingUnit
}

// Area computes the full chip area breakdown for the given parameters.
func Area(p Params) AreaBreakdown {
	fifoWords := p.PCU.VectorIns*p.PCU.Lanes*p.Chip.VectorFIFODepth + p.PCU.ScalarIns*p.Chip.ScalarFIFODepth
	pmuFIFOWords := p.PMU.VectorIns*p.PMU.Banks*p.Chip.VectorFIFODepth + p.PMU.ScalarIns*p.Chip.ScalarFIFODepth
	return AreaBreakdown{
		PCUFUs:       float64(p.PCU.Lanes*p.PCU.Stages) * areaFU,
		PCURegisters: float64(p.PCU.Lanes*p.PCU.Stages*p.PCU.Registers) * areaPipelineReg,
		PCUFIFOs:     float64(fifoWords) * areaPCUFIFOWord,
		PCUControl:   areaControl,

		PMUScratchpad: float64(p.PMU.BankKB*p.PMU.Banks) * areaSRAMPerKB,
		PMUFIFOs:      float64(pmuFIFOWords) * areaPMUFIFOWord,
		PMURegisters:  float64(p.PMU.Stages*p.PMU.Registers) * areaPMUReg,
		PMUFUs:        float64(p.PMU.Stages) * areaScalarALU,
		PMUControl:    areaControl,

		Interconnect:     InterconnectArea(p),
		MemoryController: MemoryControllerArea(p),

		NumPCUs: p.NumPCUs(),
		NumPMUs: p.NumPMUs(),
	}
}

// ASICResourceArea estimates the area of fixed-function (non-reconfigurable)
// resources, used by the Table 6 generalisation study: a hardwired ALU,
// register, or SRAM without configuration overhead. The paper reports that
// reconfigurability costs about 2.8x on average over ASIC designs; the
// discounts below express which fraction of each reconfigurable component a
// fixed-function equivalent needs.
const (
	asicFUFraction   = 0.40 // fixed-op datapath vs reconfigurable FU
	asicRegFraction  = 0.60 // no config muxing
	asicSRAMFraction = 0.75 // exact-sized single-mode SRAM macro
)

// ScalarALUArea returns the area of one scalar address-datapath ALU.
func ScalarALUArea() float64 { return areaScalarALU }

// SRAMAreaPerKB returns configurable scratchpad area per KB.
func SRAMAreaPerKB() float64 { return areaSRAMPerKB }

// ControlArea returns the area of one unit's control block.
func ControlArea() float64 { return areaControl }

// ASICFUArea returns the area of a fixed-function 32-bit datapath op.
func ASICFUArea() float64 { return areaFU * asicFUFraction }

// ASICRegArea returns the area of a hardwired 32-bit pipeline register.
func ASICRegArea() float64 { return areaPipelineReg * asicRegFraction }

// ASICSRAMArea returns the area of an exact-sized SRAM of n KB.
func ASICSRAMArea(kb float64) float64 { return kb * areaSRAMPerKB * asicSRAMFraction }
