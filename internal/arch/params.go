// Package arch defines the parameterised Plasticine architecture: the
// tunable parameters of Pattern Compute Units (PCUs), Pattern Memory Units
// (PMUs) and the chip-level organisation (Table 3 of the paper), together
// with area and power models seeded from the paper's 28 nm synthesis
// results (Table 5, Section 4.2).
package arch

import (
	"encoding/json"
	"fmt"
)

// PCUParams are the tunable Pattern Compute Unit parameters (Table 3).
type PCUParams struct {
	Lanes      int // SIMD lanes (paper range 4..32, final 16)
	Stages     int // pipeline stages of functional units (1..16, final 6)
	Registers  int // pipeline registers per FU/stage (2..16, final 6)
	ScalarIns  int // scalar inputs (1..16, final 6)
	ScalarOuts int // scalar outputs (1..6, final 5)
	VectorIns  int // vector inputs (1..10, final 3)
	VectorOuts int // vector outputs (1..6, final 3)
}

// PMUParams are the tunable Pattern Memory Unit parameters (Table 3).
type PMUParams struct {
	BankKB     int // size of one SRAM bank in KB (4..64, final 16)
	Banks      int // number of SRAM banks (equals PCU lanes, final 16)
	Stages     int // scalar address-datapath stages (1..16, final 4)
	Registers  int // registers per stage (2..16, final 6)
	ScalarIns  int // scalar inputs (1..16, final 4)
	ScalarOuts int // scalar outputs (0..6, final 0)
	VectorIns  int // vector inputs (1..10, final 3)
	VectorOuts int // vector outputs (1..6, final 1)
}

// ChipParams describe the chip-level organisation (Section 3, Figure 5).
type ChipParams struct {
	Rows int // unit rows (final 8)
	Cols int // unit columns (final 16); PCU:PMU ratio is 1:1, interleaved

	DDRChannels    int // DRAM channels (final 4)
	AGsPerSide     int // address generators per chip side feeding the channels
	CoalescingUnit int // coalescing units, one per channel

	ClockMHz int // fabric clock (final 1000 = 1 GHz)

	// FIFO depths used throughout the fabric.
	VectorFIFODepth int
	ScalarFIFODepth int
}

// Params is a complete Plasticine architecture configuration.
type Params struct {
	PCU  PCUParams
	PMU  PMUParams
	Chip ChipParams
}

// Default returns the final architecture selected in the paper
// (Table 3): a 16x8 array with a 1:1 PCU:PMU ratio, 16-lane 6-stage PCUs,
// 256 KB 16-bank PMUs, 4 DDR channels at 1 GHz.
func Default() Params {
	return Params{
		PCU: PCUParams{
			Lanes:      16,
			Stages:     6,
			Registers:  6,
			ScalarIns:  6,
			ScalarOuts: 5,
			VectorIns:  3,
			VectorOuts: 3,
		},
		PMU: PMUParams{
			BankKB:     16,
			Banks:      16,
			Stages:     4,
			Registers:  6,
			ScalarIns:  4,
			ScalarOuts: 0,
			VectorIns:  3,
			VectorOuts: 1,
		},
		Chip: ChipParams{
			Rows:            8,
			Cols:            16,
			DDRChannels:     4,
			AGsPerSide:      17, // 34 AGs total, two sides (Table 5)
			CoalescingUnit:  4,
			ClockMHz:        1000,
			VectorFIFODepth: 16,
			ScalarFIFODepth: 16,
		},
	}
}

// NumPCUs returns the number of PCUs on the chip (half the units; the array
// interleaves PCUs and PMUs 1:1 as in Figure 5).
func (p Params) NumPCUs() int { return p.Chip.Rows * p.Chip.Cols / 2 }

// NumPMUs returns the number of PMUs on the chip.
func (p Params) NumPMUs() int { return p.Chip.Rows * p.Chip.Cols / 2 }

// NumAGs returns the total number of address generators.
func (p Params) NumAGs() int { return 2 * p.Chip.AGsPerSide }

// ScratchpadBytes returns the scratchpad capacity of one PMU in bytes.
func (p Params) ScratchpadBytes() int { return p.PMU.BankKB * 1024 * p.PMU.Banks }

// PeakFLOPS returns the peak single-precision floating point throughput in
// FLOP/s: every FU can retire one operation per cycle.
func (p Params) PeakFLOPS() float64 {
	fus := float64(p.NumPCUs() * p.PCU.Lanes * p.PCU.Stages)
	return fus * float64(p.Chip.ClockMHz) * 1e6 * 2 // FMA counts as 2 FLOPs
}

// PeakDRAMBandwidth returns the theoretical peak DRAM bandwidth in bytes/s
// for the configured number of DDR3-1600 channels (12.8 GB/s each).
func (p Params) PeakDRAMBandwidth() float64 {
	return float64(p.Chip.DDRChannels) * 12.8e9
}

// Validate reports whether the parameters lie within the design space the
// paper explores (Table 3) and are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.PCU.Lanes < 1 || p.PCU.Lanes > 64:
		return fmt.Errorf("arch: PCU lanes %d out of range [1,64]", p.PCU.Lanes)
	case p.PCU.Stages < 1 || p.PCU.Stages > 16:
		return fmt.Errorf("arch: PCU stages %d out of range [1,16]", p.PCU.Stages)
	case p.PCU.Registers < 1 || p.PCU.Registers > 16:
		return fmt.Errorf("arch: PCU registers %d out of range [1,16]", p.PCU.Registers)
	case p.PCU.ScalarIns < 1 || p.PCU.ScalarIns > 16:
		return fmt.Errorf("arch: PCU scalar inputs %d out of range [1,16]", p.PCU.ScalarIns)
	case p.PCU.ScalarOuts < 1 || p.PCU.ScalarOuts > 6:
		return fmt.Errorf("arch: PCU scalar outputs %d out of range [1,6]", p.PCU.ScalarOuts)
	case p.PCU.VectorIns < 1 || p.PCU.VectorIns > 10:
		return fmt.Errorf("arch: PCU vector inputs %d out of range [1,10]", p.PCU.VectorIns)
	case p.PCU.VectorOuts < 1 || p.PCU.VectorOuts > 6:
		return fmt.Errorf("arch: PCU vector outputs %d out of range [1,6]", p.PCU.VectorOuts)
	case p.PMU.Banks < 1:
		return fmt.Errorf("arch: PMU banks %d must be positive", p.PMU.Banks)
	case p.PMU.BankKB < 1:
		return fmt.Errorf("arch: PMU bank size %d KB must be positive", p.PMU.BankKB)
	case p.PMU.Stages < 1 || p.PMU.Stages > 16:
		return fmt.Errorf("arch: PMU stages %d out of range [1,16]", p.PMU.Stages)
	case p.PMU.ScalarOuts < 0 || p.PMU.ScalarOuts > 6:
		return fmt.Errorf("arch: PMU scalar outputs %d out of range [0,6]", p.PMU.ScalarOuts)
	case p.Chip.Rows < 1 || p.Chip.Cols < 1:
		return fmt.Errorf("arch: chip grid %dx%d must be positive", p.Chip.Cols, p.Chip.Rows)
	case p.Chip.Rows*p.Chip.Cols%2 != 0:
		return fmt.Errorf("arch: chip grid %dx%d must hold an equal number of PCUs and PMUs", p.Chip.Cols, p.Chip.Rows)
	case p.Chip.DDRChannels < 1:
		return fmt.Errorf("arch: %d DDR channels, need at least 1", p.Chip.DDRChannels)
	case p.Chip.ClockMHz < 1:
		return fmt.Errorf("arch: clock %d MHz must be positive", p.Chip.ClockMHz)
	case p.Chip.VectorFIFODepth < 2 || p.Chip.ScalarFIFODepth < 2:
		return fmt.Errorf("arch: FIFO depths (%d vector, %d scalar) must be at least 2",
			p.Chip.VectorFIFODepth, p.Chip.ScalarFIFODepth)
	}
	return nil
}

// Key renders every field of the configuration, for cache keys: its JSON
// encoding. String would not do: it summarises, leaving out register and
// port counts among others, so designs that differ only there would share
// a key.
func (p Params) Key() string {
	b, _ := json.Marshal(p) // nested structs of ints always encode
	return string(b)
}

// String summarises the configuration.
func (p Params) String() string {
	return fmt.Sprintf("plasticine %dx%d (%d PCUs, %d PMUs), %d lanes x %d stages, %d KB/PMU, %d DDR ch @ %d MHz",
		p.Chip.Cols, p.Chip.Rows, p.NumPCUs(), p.NumPMUs(),
		p.PCU.Lanes, p.PCU.Stages, p.ScratchpadBytes()/1024, p.Chip.DDRChannels, p.Chip.ClockMHz)
}
