// Package dhdl implements a hierarchical dataflow IR modelled on the Delite
// Hardware Definition Language (Section 3.6): programs are trees of
// controllers — outer controllers that only sequence other controllers
// (Sequential, Pipeline, Stream, Parallel) and leaf controllers that do work
// (Compute pipelines and DRAM transfers) — operating on explicitly declared
// memories (off-chip DRAM buffers, on-chip SRAM tiles, scalar registers and
// FIFOs).
//
// The package also contains a sequential reference interpreter (Run) that
// defines the IR's semantics; the hardware simulator is checked against it.
package dhdl

import (
	"fmt"

	"plasticine/internal/pattern"
)

// BankingMode selects how a PMU's address decoders arrange an SRAM's banks
// (Section 3.2).
type BankingMode int

const (
	// Strided banking supports linear access patterns on dense data:
	// element i lives in bank i % banks.
	Strided BankingMode = iota
	// FIFOMode supports streaming accesses.
	FIFOMode
	// LineBuffer captures sliding-window accesses.
	LineBuffer
	// Duplication replicates contents across all banks, providing one read
	// port per lane for parallel on-chip gathers (random reads).
	Duplication
)

func (m BankingMode) String() string {
	switch m {
	case Strided:
		return "strided"
	case FIFOMode:
		return "fifo"
	case LineBuffer:
		return "linebuffer"
	case Duplication:
		return "duplication"
	}
	return fmt.Sprintf("banking(%d)", int(m))
}

// DRAMBuf is an off-chip DRAM-resident buffer. Its contents are bound to a
// pattern.Collection when a program runs.
type DRAMBuf struct {
	Name string
	Elem pattern.Type
	Dims []int

	// Data is the live backing store, bound with Bind.
	Data *pattern.Collection
}

// Len returns the number of elements.
func (d *DRAMBuf) Len() int {
	n := 1
	for _, x := range d.Dims {
		n *= x
	}
	return n
}

// Bytes returns the buffer size in bytes.
func (d *DRAMBuf) Bytes() int { return 4 * d.Len() }

// Bind attaches collection data; dimensions must match.
func (d *DRAMBuf) Bind(c *pattern.Collection) error {
	if c.Len() != d.Len() {
		return fmt.Errorf("dhdl: binding %s (%d elems) to collection %s (%d elems)", d.Name, d.Len(), c.Name, c.Len())
	}
	if c.Elem != d.Elem {
		return fmt.Errorf("dhdl: binding %s (%v) to collection of type %v", d.Name, d.Elem, c.Elem)
	}
	d.Data = c
	return nil
}

// SRAM is an on-chip scratchpad tile held in one (logical) PMU.
type SRAM struct {
	Name string
	// Origin names the source node this tile buffers (empty = Name).
	Origin  string
	Elem    pattern.Type
	Size    int // words
	Banking BankingMode

	// NBuf is the buffering depth (Section 3.2: N-buffering). 1 = single
	// buffer. The compiler raises it to the producer/consumer distance in
	// coarse-grained pipelines.
	NBuf int
}

// Reg is a scalar register, communicated over the scalar network
// (e.g. the result of a Fold).
type Reg struct {
	Name string
	Elem pattern.Type
	Init pattern.Value
}

// FIFOMem is a streaming FIFO connecting controllers under a Stream parent.
type FIFOMem struct {
	Name  string
	Elem  pattern.Type
	Depth int // words
}

// Provenance returns Origin, or Name when no origin was recorded.
func (s *SRAM) Provenance() string {
	if s.Origin != "" {
		return s.Origin
	}
	return s.Name
}
