// Package compiler maps DHDL programs onto the Plasticine fabric
// (Section 3.6): it allocates virtual Pattern Compute and Memory Units from
// the controller tree, schedules dataflow bodies into SIMD pipeline stages,
// partitions virtual units into physical units under a given set of
// architecture parameters, places units on the chip grid and routes the
// static interconnect, and emits per-unit configurations (the "bitstream")
// plus a resource report.
package compiler

import (
	"fmt"

	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

// OperandKind says where a VOp argument comes from.
type OperandKind int

const (
	// OpResult is the result of an earlier op in the same virtual unit.
	OpResult OperandKind = iota
	// VecIn is a vector input bus (SRAM read data, FIFO data).
	VecIn
	// ScalIn is a scalar input bus (register reads, dynamic limits).
	ScalIn
	// CtrIdx is a counter value from the unit's own counter chain.
	CtrIdx
	// ConstOperand is a configuration constant.
	ConstOperand
)

// Operand is one argument of a virtual op.
type Operand struct {
	Kind  OperandKind
	ID    int // op ID, input index, or counter level
	Const pattern.Value
}

// VOpKind classifies a virtual op.
type VOpKind int

const (
	// ALUOp is a plain functional-unit operation.
	ALUOp VOpKind = iota
	// MuxOp selects between two values.
	MuxOp
	// CastOp converts between i32 and f32.
	CastOp
	// ReduceOp folds a vector across lanes through the reduction tree and
	// accumulates across firings; it occupies log2(lanes)+1 stages.
	ReduceOp
	// RMWOp is the read-modify-write op a ReduceSRAM performs inside the
	// destination PMU.
	RMWOp
)

// VOp is one virtual pipeline operation.
type VOp struct {
	ID   int
	Kind VOpKind
	ALU  pattern.Op // for ALUOp, ReduceOp, RMWOp
	ToF  bool       // for CastOp: true = i32->f32
	Args []Operand
}

// StreamStride is the lane-level address behaviour of one SRAM stream.
type StreamStride struct {
	Stride int64
	// Affine is false for per-lane data-dependent (gather/scatter)
	// accesses.
	Affine bool
}

// VecInput describes a vector input bus of a virtual PCU.
type VecInput struct {
	SRAM *dhdl.SRAM
	FIFO *dhdl.FIFOMem
}

// ScalInput describes a scalar input bus.
type ScalInput struct {
	Reg *dhdl.Reg
}

// OutputKind classifies a virtual PCU output.
type OutputKind int

const (
	// OutVecSRAM writes a vector to a PMU.
	OutVecSRAM OutputKind = iota
	// OutVecFIFO pushes a vector (with valid mask) to a FIFO.
	OutVecFIFO
	// OutScalReg drives a scalar register over the scalar network.
	OutScalReg
)

// VOut is one output of a virtual PCU.
type VOut struct {
	Kind OutputKind
	SRAM *dhdl.SRAM
	FIFO *dhdl.FIFOMem
	Reg  *dhdl.Reg
	Src  Operand // value leaving the unit
}

// VirtualPCU is the abstract compute unit for one inner controller, with
// unbounded stages, registers and IO (Section 3.6: "virtual units").
type VirtualPCU struct {
	Name string
	// Origin is the source-level provenance inherited from the leaf
	// controller (Controller.Provenance); never empty after Allocate.
	Origin string
	Leaf   *dhdl.Controller

	Ops     []*VOp // in dependency (schedule) order
	VecIns  []VecInput
	ScalIns []ScalInput
	Outs    []VOut
	// ReadAccess/WriteAccess record how each SRAM stream's address varies
	// across lanes, for banking-conflict analysis.
	ReadAccess  []StreamStride
	WriteAccess []StreamStride
	NumCtrs     int   // counters in the unit's chain
	Reduces     int   // number of ReduceOps (cross-lane trees)
	Lanes       int   // innermost counter parallelization
	Unroll      int   // duplication factor from outer-counter parallelization
	Firings     int64 // vectors processed per full program run (static estimate)
}

// VirtualPMU is the abstract memory unit for one SRAM.
type VirtualPMU struct {
	Name string
	// Origin is the provenance inherited from the SRAM (SRAM.Provenance).
	Origin string
	Mem    *dhdl.SRAM

	AddrOps int // address-datapath ops copied from producers/consumers
	RMWOps  int // read-modify-write ALU ops (ReduceSRAM)
	Readers int // total read streams across leaves
	Writers int // total write streams across leaves
	// MaxConcurrentReads is the largest number of distinct read streams a
	// single leaf opens; streams beyond the PMU's vector outputs require
	// content duplication (Section 3.2, duplication mode).
	MaxConcurrentReads int
	Unroll             int // duplication factor from outer parallelization
	NBuf               int // buffering depth after pipeline analysis
	// Banking is the mode the PMU runs in: the SRAM's declared mode, or
	// duplication when a lane reads a strided SRAM at a non-affine address
	// (Section 3.2). The program's SRAM keeps its declared mode.
	Banking dhdl.BankingMode
}

// VirtualAG is an address-generator allocation for one transfer leaf.
type VirtualAG struct {
	Name string
	// Origin is the provenance inherited from the transfer controller.
	Origin string
	Leaf   *dhdl.Controller
	Sparse bool
	Write  bool
	Unroll int
}

// Virtual is the virtual-unit view of a program.
type Virtual struct {
	Prog *dhdl.Program
	PCUs []*VirtualPCU
	PMUs []*VirtualPMU
	AGs  []*VirtualAG
	// OuterCtrls counts outer controllers, which map to control logic in
	// switches (Section 3.5).
	OuterCtrls int
}

func (v *Virtual) String() string {
	return fmt.Sprintf("virtual(%s): %d PCUs, %d PMUs, %d AGs, %d outer ctrls",
		v.Prog.Name, len(v.PCUs), len(v.PMUs), len(v.AGs), v.OuterCtrls)
}
