package dhdl

import (
	"fmt"

	"plasticine/internal/pattern"
)

// Kind classifies a controller node (Section 3.5, Figure 6).
type Kind int

const (
	// Sequential executes its counter chain one child-set at a time; only
	// one data-dependent child is active at once (loop-carried deps).
	Sequential Kind = iota
	// Pipeline executes children in a coarse-grained pipelined fashion;
	// intermediate memories are M-buffered.
	Pipeline
	// Stream executes children as a fine-grained pipeline communicating
	// through FIFOs.
	Stream
	// Parallel executes independent children concurrently (an unrolled
	// outer pattern).
	Parallel
	// ComputeKind is an inner controller: a counter chain plus a dataflow
	// body, mapped to one or more PCUs.
	ComputeKind
	// LoadKind is a dense DRAM-to-SRAM tile transfer (AG burst reads).
	LoadKind
	// StoreKind is a dense SRAM-to-DRAM tile transfer (AG burst writes).
	StoreKind
	// GatherKind is a sparse DRAM read: addresses stream from on-chip
	// memory, the coalescing unit gathers data.
	GatherKind
	// ScatterKind is a sparse DRAM write.
	ScatterKind
)

func (k Kind) String() string {
	switch k {
	case Sequential:
		return "Sequential"
	case Pipeline:
		return "Pipeline"
	case Stream:
		return "Stream"
	case Parallel:
		return "Parallel"
	case ComputeKind:
		return "Compute"
	case LoadKind:
		return "Load"
	case StoreKind:
		return "Store"
	case GatherKind:
		return "Gather"
	case ScatterKind:
		return "Scatter"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsOuter reports whether the kind only sequences other controllers.
func (k Kind) IsOuter() bool {
	switch k {
	case Sequential, Pipeline, Stream, Parallel:
		return true
	}
	return false
}

// Counter is one level of a reconfigurable counter chain: it iterates
// from Min to Max (exclusive) in steps of Step. Par is the parallelization
// factor: Par consecutive iterations execute together (SIMD lanes for inner
// counters, unrolling for outer counters).
type Counter struct {
	Min    int
	Max    int  // static trip limit; ignored if MaxReg != nil
	MaxReg *Reg // dynamic trip limit read when the loop starts
	Step   int
	Par    int
}

// Trips returns the static iteration count (ceil((Max-Min)/Step)).
// For dynamic counters it returns -1.
func (c Counter) Trips() int {
	if c.MaxReg != nil {
		return -1
	}
	if c.Step <= 0 {
		return 0
	}
	n := c.Max - c.Min
	if n <= 0 {
		return 0
	}
	return (n + c.Step - 1) / c.Step
}

// AssignKind says where a Compute body's value goes.
type AssignKind int

const (
	// WriteSRAM stores Val at Addr in SRAM every iteration.
	WriteSRAM AssignKind = iota
	// WriteReg stores Val into Reg (last value wins).
	WriteReg
	// ReduceReg folds Val into Reg with Combine across the whole counter
	// domain (cross-lane reduction tree + accumulator).
	ReduceReg
	// ReduceSRAM read-modify-writes SRAM[Addr] with Combine (dense
	// HashReduce accumulators, histogram bins).
	ReduceSRAM
	// PushFIFO appends Val to FIFO (when Cond holds, if set) — FlatMap
	// coalescing hardware.
	PushFIFO
)

func (k AssignKind) String() string {
	switch k {
	case WriteSRAM:
		return "writeSRAM"
	case WriteReg:
		return "writeReg"
	case ReduceReg:
		return "reduceReg"
	case ReduceSRAM:
		return "reduceSRAM"
	case PushFIFO:
		return "pushFIFO"
	}
	return fmt.Sprintf("assign(%d)", int(k))
}

// Assign is one output of a Compute body.
type Assign struct {
	Kind    AssignKind
	SRAM    *SRAM
	Reg     *Reg
	FIFO    *FIFOMem
	Addr    Expr // address for SRAM destinations
	Cond    Expr // optional predicate; nil = always
	Val     Expr
	Combine pattern.Op // for Reduce* kinds
}

// Transfer describes a DRAM<->SRAM/FIFO movement (Load/Store/Gather/Scatter
// leaves).
type Transfer struct {
	DRAM *DRAMBuf

	// Dense transfers: a contiguous region of Len words starting at DRAM
	// word offset Off (an expression over enclosing counters).
	Off Expr
	Len int

	// On-chip endpoint: exactly one of SRAM or FIFO.
	SRAM *SRAM
	FIFO *FIFOMem
	// SRAMOff is the starting word in the SRAM (defaults to 0).
	SRAMOff Expr

	// Sparse transfers: AddrMem streams element indices into DRAM; Count
	// addresses are processed (CountReg if dynamic). For Gather, data
	// lands in SRAM/FIFO in stream order; for Scatter, DataMem streams the
	// values to write.
	AddrMem  *SRAM
	AddrFIFO *FIFOMem
	DataMem  *SRAM
	DataFIFO *FIFOMem
	Count    int
	CountReg *Reg
}

// Controller is a node of the DHDL program tree.
type Controller struct {
	Name string
	// Origin names the source-level construct this controller implements —
	// typically a pattern.SourceMap label like "Fold.n3:bin(mul)" or a
	// loop-nest path like "Fold/body". It survives compilation (virtual
	// units, partitioning, placement, Repair) so profiles can attribute
	// cycles back to source. Empty means "no richer source than Name";
	// consumers fall back via Provenance.
	Origin string
	Kind   Kind
	Chain  []Counter // loop counters this controller owns (may be empty)

	Children []*Controller // for outer kinds

	Body []*Assign // for ComputeKind
	Xfer *Transfer // for transfer kinds

	// Depth is the counter level of this controller's first counter
	// (set by Builder.Build; Ctr expressions use these global levels).
	Depth int

	// reads and writes are a leaf's memory footprint, set by
	// Builder.Build (see Reads and Writes).
	reads, writes []any
}

// Provenance is the controller's source attribution: Origin when set, the
// controller name otherwise — so hand-written DHDL (no pattern front end)
// still yields a complete provenance chain.
func (c *Controller) Provenance() string {
	if c.Origin != "" {
		return c.Origin
	}
	return c.Name
}

// Program is a complete DHDL application.
type Program struct {
	Name  string
	Root  *Controller
	DRAMs []*DRAMBuf
	SRAMs []*SRAM
	Regs  []*Reg
	FIFOs []*FIFOMem
}

// Walk visits c and every controller below it, pre-order.
func (c *Controller) Walk(visit func(c *Controller)) {
	visit(c)
	for _, ch := range c.Children {
		ch.Walk(visit)
	}
}

// Walk visits every controller pre-order.
func (p *Program) Walk(visit func(c *Controller)) {
	if p.Root != nil {
		p.Root.Walk(visit)
	}
}

// Leaves returns all leaf (work-performing) controllers in program order.
func (p *Program) Leaves() []*Controller {
	var out []*Controller
	p.Walk(func(c *Controller) {
		if !c.Kind.IsOuter() {
			out = append(out, c)
		}
	})
	return out
}

// assignDepths sets every controller's Depth: the number of counters its
// ancestors own.
func (p *Program) assignDepths() {
	var rec func(c *Controller, depth int)
	rec = func(c *Controller, depth int) {
		c.Depth = depth
		for _, ch := range c.Children {
			rec(ch, depth+len(c.Chain))
		}
	}
	if p.Root != nil {
		rec(p.Root, 0)
	}
}

// Finalize validates the tree, including each controller's Depth, which
// Builder.Build assigns. It writes nothing, so several goroutines may
// finalize and compile one program at once.
func (p *Program) Finalize() error {
	var rec func(c *Controller, depth int) error
	rec = func(c *Controller, depth int) error {
		if c.Depth != depth {
			return fmt.Errorf("dhdl: controller %q has counter depth %d, want %d", c.Name, c.Depth, depth)
		}
		next := depth + len(c.Chain)
		if c.Kind.IsOuter() {
			if len(c.Children) == 0 {
				return fmt.Errorf("dhdl: outer controller %q has no children", c.Name)
			}
			if c.Body != nil || c.Xfer != nil {
				return fmt.Errorf("dhdl: outer controller %q must not carry a body or transfer", c.Name)
			}
			for _, ch := range c.Children {
				if err := rec(ch, next); err != nil {
					return err
				}
			}
			return nil
		}
		if len(c.Children) != 0 {
			return fmt.Errorf("dhdl: leaf controller %q has children", c.Name)
		}
		switch c.Kind {
		case ComputeKind:
			if len(c.Body) == 0 {
				return fmt.Errorf("dhdl: compute %q has no outputs", c.Name)
			}
			for _, a := range c.Body {
				if err := validateAssign(c, a, next); err != nil {
					return err
				}
			}
		case LoadKind, StoreKind, GatherKind, ScatterKind:
			if c.Xfer == nil {
				return fmt.Errorf("dhdl: transfer %q has no transfer description", c.Name)
			}
			if err := validateTransfer(c, next); err != nil {
				return err
			}
		}
		return nil
	}
	if p.Root == nil {
		return fmt.Errorf("dhdl: program %q has no root", p.Name)
	}
	for _, ctr := range allCounters(p.Root) {
		// Trips counts no iterations for a step below 1; the loops must
		// not run any either.
		if ctr.Step < 1 || ctr.Par < 1 {
			return fmt.Errorf("dhdl: program %q has counter with step %d, par %d", p.Name, ctr.Step, ctr.Par)
		}
	}
	return rec(p.Root, 0)
}

func allCounters(c *Controller) []Counter {
	out := append([]Counter{}, c.Chain...)
	for _, ch := range c.Children {
		out = append(out, allCounters(ch)...)
	}
	return out
}

func validateAssign(c *Controller, a *Assign, maxLevel int) error {
	exprs := []Expr{a.Val}
	if a.Addr != nil {
		exprs = append(exprs, a.Addr)
	}
	if a.Cond != nil {
		exprs = append(exprs, a.Cond)
		if a.Cond.Type() != pattern.Bool {
			return fmt.Errorf("dhdl: %s: condition must be bool", c.Name)
		}
	}
	for _, e := range exprs {
		if l := MaxCtrLevel(e); l >= maxLevel {
			return fmt.Errorf("dhdl: %s: expression uses counter level %d, only %d levels in scope", c.Name, l, maxLevel)
		}
	}
	switch a.Kind {
	case WriteSRAM:
		if a.SRAM == nil || a.Addr == nil {
			return fmt.Errorf("dhdl: %s: WriteSRAM needs SRAM and Addr", c.Name)
		}
	case WriteReg:
		if a.Reg == nil {
			return fmt.Errorf("dhdl: %s: WriteReg needs Reg", c.Name)
		}
	case ReduceReg:
		if a.Reg == nil || !a.Combine.IsAssociative() {
			return fmt.Errorf("dhdl: %s: ReduceReg needs Reg and associative combine", c.Name)
		}
	case ReduceSRAM:
		if a.SRAM == nil || a.Addr == nil || !a.Combine.IsAssociative() {
			return fmt.Errorf("dhdl: %s: ReduceSRAM needs SRAM, Addr and associative combine", c.Name)
		}
	case PushFIFO:
		if a.FIFO == nil {
			return fmt.Errorf("dhdl: %s: PushFIFO needs FIFO", c.Name)
		}
	default:
		return fmt.Errorf("dhdl: %s: unknown assign kind %d", c.Name, a.Kind)
	}
	return nil
}

func validateTransfer(c *Controller, maxLevel int) error {
	x := c.Xfer
	if x.DRAM == nil {
		return fmt.Errorf("dhdl: %s: transfer has no DRAM buffer", c.Name)
	}
	if x.Off != nil {
		if l := MaxCtrLevel(x.Off); l >= maxLevel {
			return fmt.Errorf("dhdl: %s: offset uses counter level %d, only %d in scope", c.Name, l, maxLevel)
		}
	}
	dense := c.Kind == LoadKind || c.Kind == StoreKind
	if dense {
		if x.Len <= 0 {
			return fmt.Errorf("dhdl: %s: dense transfer needs positive Len", c.Name)
		}
		if (x.SRAM == nil) == (x.FIFO == nil) {
			return fmt.Errorf("dhdl: %s: dense transfer needs exactly one of SRAM or FIFO", c.Name)
		}
		if x.SRAM != nil && x.Len > x.SRAM.Size {
			return fmt.Errorf("dhdl: %s: transfer of %d words exceeds SRAM %s size %d", c.Name, x.Len, x.SRAM.Name, x.SRAM.Size)
		}
		return nil
	}
	// Sparse.
	if x.AddrMem == nil && x.AddrFIFO == nil {
		return fmt.Errorf("dhdl: %s: sparse transfer needs an address stream", c.Name)
	}
	if x.Count <= 0 && x.CountReg == nil {
		return fmt.Errorf("dhdl: %s: sparse transfer needs Count or CountReg", c.Name)
	}
	if c.Kind == GatherKind && x.SRAM == nil && x.FIFO == nil {
		return fmt.Errorf("dhdl: %s: gather needs a destination", c.Name)
	}
	if c.Kind == ScatterKind && x.DataMem == nil && x.DataFIFO == nil {
		return fmt.Errorf("dhdl: %s: scatter needs a data stream", c.Name)
	}
	return nil
}
