package dhdl

import "slices"

// Reads lists the memories a leaf reads, as Builder.Build recorded them:
// *SRAM, *Reg, *FIFOMem and *DRAMBuf values, each once. The order is
// fixed, because the simulator's graph builder adds dependency edges in
// it:
//
//   - the registers that bound the leaf's counters, in chain order;
//   - for a Compute, per assign in body order: what its value, then its
//     address, then its condition reads, each expression's SRAMs before
//     its FIFOs before its registers; then a ReduceSRAM's own target;
//   - for a transfer, its count register, then its sources: a Load's
//     DRAM buffer; a Store's SRAM or FIFO; a Gather's address SRAM or
//     FIFO, then its DRAM buffer; a Scatter's address SRAM or FIFO, then
//     its data SRAM or FIFO.
//
// Outer controllers touch no memory and list none, as do the leaves of a
// program that Builder.Build did not return.
func (c *Controller) Reads() []any { return c.reads }

// Writes lists the memories a leaf writes, each once: a Compute's assign
// targets in body order, a Load's or Gather's SRAM or FIFO, a Store's or
// Scatter's DRAM buffer.
func (c *Controller) Writes() []any { return c.writes }

// footprint derives Reads and Writes for a validated leaf.
func (c *Controller) footprint() (reads, writes []any) {
	for _, ctr := range c.Chain {
		reads = addMem(reads, ctr.MaxReg)
	}
	if c.Kind == ComputeKind {
		for _, a := range c.Body {
			reads = a.reads(reads)
			switch a.Kind {
			case WriteSRAM:
				writes = addMem(writes, a.SRAM)
			case ReduceSRAM:
				reads = addMem(reads, a.SRAM)
				writes = addMem(writes, a.SRAM)
			case WriteReg, ReduceReg:
				writes = addMem(writes, a.Reg)
			case PushFIFO:
				writes = addMem(writes, a.FIFO)
			}
		}
		return reads, writes
	}
	x := c.Xfer
	reads = addMem(reads, x.CountReg)
	switch c.Kind {
	case LoadKind:
		reads = addMem(reads, x.DRAM)
		writes = addMem(addMem(writes, x.SRAM), x.FIFO)
	case StoreKind:
		reads = addMem(addMem(reads, x.SRAM), x.FIFO)
		writes = addMem(writes, x.DRAM)
	case GatherKind:
		reads = addMem(addMem(addMem(reads, x.AddrMem), x.AddrFIFO), x.DRAM)
		writes = addMem(addMem(writes, x.SRAM), x.FIFO)
	case ScatterKind:
		reads = addMem(addMem(reads, x.AddrMem), x.AddrFIFO)
		reads = addMem(addMem(reads, x.DataMem), x.DataFIFO)
		writes = addMem(writes, x.DRAM)
	}
	return reads, writes
}

// reads appends to ms the memories a's value, address and condition read
// that ms does not list yet, in Reads order.
func (a *Assign) reads(ms []any) []any {
	for _, e := range [...]Expr{a.Val, a.Addr, a.Cond} {
		if e != nil {
			ms = addReads(ms, e)
		}
	}
	return ms
}

// addReads appends to ms the memories e reads that ms does not list yet:
// its SRAMs, then its FIFOs, then its registers, each kind in pre-order.
func addReads(ms []any, e Expr) []any {
	Walk(e, func(x Expr) {
		if r, ok := x.(*SRAMRd); ok {
			ms = addMem(ms, r.Mem)
		}
	})
	Walk(e, func(x Expr) {
		if r, ok := x.(*FIFORd); ok {
			ms = addMem(ms, r.Mem)
		}
	})
	Walk(e, func(x Expr) {
		if r, ok := x.(*RegRd); ok {
			ms = addMem(ms, r.Reg)
		}
	})
	return ms
}

// addMem appends m to ms unless m is nil or ms lists it already.
func addMem[M *SRAM | *Reg | *FIFOMem | *DRAMBuf](ms []any, m M) []any {
	if m == nil || slices.Contains(ms, any(m)) {
		return ms
	}
	return append(ms, m)
}
