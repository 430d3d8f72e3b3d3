package compiler

import (
	"fmt"

	"plasticine/internal/dhdl"
)

// Allocate builds the virtual-unit view of a program: one virtual PCU per
// inner (compute) controller, one virtual PMU per SRAM, one virtual AG per
// transfer leaf, with outer controllers counted for switch control logic
// (Section 3.6, "allocate and schedule virtual PMUs and PCUs").
func Allocate(p *dhdl.Program) (*Virtual, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	v := &Virtual{Prog: p}
	pmus := make(map[*dhdl.SRAM]*VirtualPMU)
	pmuOf := func(s *dhdl.SRAM) *VirtualPMU {
		if m, ok := pmus[s]; ok {
			return m
		}
		m := &VirtualPMU{Name: s.Name, Origin: s.Provenance(), Mem: s, NBuf: s.NBuf, Unroll: 1,
			Banking: s.Banking}
		pmus[s] = m
		v.PMUs = append(v.PMUs, m)
		return m
	}

	var walk func(c *dhdl.Controller, unroll int, err *error)
	walk = func(c *dhdl.Controller, unroll int, err *error) {
		if *err != nil {
			return
		}
		if c.Kind.IsOuter() {
			v.OuterCtrls++
			for _, ctr := range c.Chain {
				unroll *= ctr.Par
			}
			for _, ch := range c.Children {
				walk(ch, unroll, err)
			}
			return
		}
		switch c.Kind {
		case dhdl.ComputeKind:
			u, e := lowerCompute(c, unroll, pmuOf)
			if e != nil {
				*err = e
				return
			}
			// Schedule for register pressure here, once per virtual unit, so
			// PartitionPCU stays read-only and safe to call concurrently.
			reorderForPressure(u)
			v.PCUs = append(v.PCUs, u)
		default:
			x := c.Xfer
			ag := &VirtualAG{
				Name:   c.Name,
				Origin: c.Provenance(),
				Leaf:   c,
				Sparse: c.Kind == dhdl.GatherKind || c.Kind == dhdl.ScatterKind,
				Write:  c.Kind == dhdl.StoreKind || c.Kind == dhdl.ScatterKind,
				Unroll: unroll,
			}
			v.AGs = append(v.AGs, ag)
			// Transfers read/write on-chip memories through the PMUs.
			for _, s := range []*dhdl.SRAM{x.SRAM, x.AddrMem, x.DataMem} {
				if s == nil {
					continue
				}
				m := pmuOf(s)
				if s == x.SRAM && (c.Kind == dhdl.LoadKind || c.Kind == dhdl.GatherKind) {
					m.Writers++
				} else {
					m.Readers++
					if m.MaxConcurrentReads < 1 {
						m.MaxConcurrentReads = 1
					}
				}
				if unroll > m.Unroll {
					m.Unroll = unroll
				}
			}
		}
	}
	var err error
	walk(p.Root, 1, &err)
	if err != nil {
		return nil, err
	}
	raiseNBuffers(p, pmus)
	return v, nil
}

// lowerCompute translates one compute leaf into a virtual PCU, copying
// address-calculation ops into the PMUs of the memories it touches
// (Section 3.2: address calculation is performed on the PMU datapath).
func lowerCompute(c *dhdl.Controller, unroll int, pmuOf func(*dhdl.SRAM) *VirtualPMU) (*VirtualPCU, error) {
	u := &VirtualPCU{Name: c.Name, Origin: c.Provenance(), Leaf: c, Lanes: 1, Unroll: unroll}
	if n := len(c.Chain); n > 0 {
		u.Lanes = c.Chain[n-1].Par
		for _, ctr := range c.Chain[:n-1] {
			u.Unroll *= ctr.Par
		}
	}
	u.NumCtrs = len(c.Chain)
	u.Firings = firingEstimate(c)

	laneLevel := -1
	if len(c.Chain) > 0 {
		laneLevel = c.Depth + len(c.Chain) - 1
	}
	lw := &lowerer{u: u, pmuOf: pmuOf, laneLevel: laneLevel,
		vecKey: map[string]int{}, scalKey: map[*dhdl.Reg]int{}, cse: map[string]Operand{}}
	// Dynamic counter limits arrive over the scalar network.
	for _, ctr := range c.Chain {
		if ctr.MaxReg != nil {
			lw.scalIn(ctr.MaxReg)
		}
	}
	for _, a := range c.Body {
		if err := lw.lowerAssign(c, a); err != nil {
			return nil, err
		}
	}
	// Record per-leaf read concurrency on each PMU.
	streams := map[*dhdl.SRAM]int{}
	for _, vi := range u.VecIns {
		if vi.SRAM != nil {
			streams[vi.SRAM]++
		}
	}
	for s, n := range streams {
		m := pmuOf(s)
		if n > m.MaxConcurrentReads {
			m.MaxConcurrentReads = n
		}
	}
	return u, nil
}

// firingEstimate is the number of vector firings per full program run,
// over-approximating dynamic counters as one trip.
func firingEstimate(c *dhdl.Controller) int64 {
	n := int64(1)
	for _, ctr := range c.Chain {
		t := ctr.Trips()
		if t < 0 {
			t = 1
		}
		n *= int64((t + ctr.Par - 1) / ctr.Par)
	}
	return n
}

type lowerer struct {
	u         *VirtualPCU
	pmuOf     func(*dhdl.SRAM) *VirtualPMU
	laneLevel int
	vecKey    map[string]int
	scalKey   map[*dhdl.Reg]int
	// cse maps a structural expression key to the operand that already
	// computes it, so repeated subtrees (common in deep pipelines like
	// Black-Scholes) lower to a single op chain.
	cse map[string]Operand
}

// hasFIFORead reports whether an expression pops a FIFO; such expressions
// have side effects and must not be deduplicated.
func hasFIFORead(e dhdl.Expr) bool {
	found := false
	dhdl.Walk(e, func(x dhdl.Expr) {
		if _, ok := x.(*dhdl.FIFORd); ok {
			found = true
		}
	})
	return found
}

// lowerCSE wraps lowerExpr with structural deduplication.
func (lw *lowerer) lowerCSE(e dhdl.Expr) (Operand, error) {
	if hasFIFORead(e) {
		return lw.lowerExpr(e)
	}
	key := dhdl.FormatExpr(e)
	if op, ok := lw.cse[key]; ok {
		return op, nil
	}
	op, err := lw.lowerExpr(e)
	if err != nil {
		return Operand{}, err
	}
	lw.cse[key] = op
	return op, nil
}

func (lw *lowerer) scalIn(r *dhdl.Reg) int {
	if i, ok := lw.scalKey[r]; ok {
		return i
	}
	i := len(lw.u.ScalIns)
	lw.u.ScalIns = append(lw.u.ScalIns, ScalInput{Reg: r})
	lw.scalKey[r] = i
	return i
}

func (lw *lowerer) addOp(op *VOp) int {
	op.ID = len(lw.u.Ops)
	lw.u.Ops = append(lw.u.Ops, op)
	return op.ID
}

func (lw *lowerer) lowerAssign(c *dhdl.Controller, a *dhdl.Assign) error {
	val, err := lw.lowerCSE(a.Val)
	if err != nil {
		return err
	}
	var cond *Operand
	if a.Cond != nil {
		cv, err := lw.lowerCSE(a.Cond)
		if err != nil {
			return err
		}
		cond = &cv
	}
	// SRAM-destination address ops belong to the destination PMU.
	addrToPMU := func(s *dhdl.SRAM) {
		m := lw.pmuOf(s)
		m.Writers++
		m.AddrOps += addrOpCount(a.Addr)
		stride, affineOK := dhdl.LaneStride(a.Addr, lw.laneLevel)
		lw.u.WriteAccess = append(lw.u.WriteAccess, StreamStride{Stride: stride, Affine: affineOK})
	}
	switch a.Kind {
	case dhdl.WriteSRAM:
		addrToPMU(a.SRAM)
		src := val
		if cond != nil {
			// Predicated write: mask computed in the PCU, write-enable
			// travels with the data.
			id := lw.addOp(&VOp{Kind: MuxOp, Args: []Operand{*cond, val, val}})
			src = Operand{Kind: OpResult, ID: id}
		}
		lw.u.Outs = append(lw.u.Outs, VOut{Kind: OutVecSRAM, SRAM: a.SRAM, Src: src})
	case dhdl.WriteReg:
		src := val
		if cond != nil {
			id := lw.addOp(&VOp{Kind: MuxOp, Args: []Operand{*cond, val, val}})
			src = Operand{Kind: OpResult, ID: id}
		}
		lw.u.Outs = append(lw.u.Outs, VOut{Kind: OutScalReg, Reg: a.Reg, Src: src})
	case dhdl.ReduceReg:
		args := []Operand{val}
		if cond != nil {
			args = append(args, *cond)
		}
		id := lw.addOp(&VOp{Kind: ReduceOp, ALU: a.Combine, Args: args})
		lw.u.Reduces++
		lw.u.Outs = append(lw.u.Outs, VOut{Kind: OutScalReg, Reg: a.Reg, Src: Operand{Kind: OpResult, ID: id}})
	case dhdl.ReduceSRAM:
		addrToPMU(a.SRAM)
		m := lw.pmuOf(a.SRAM)
		m.RMWOps++ // the combine executes in the PMU datapath
		src := val
		if cond != nil {
			id := lw.addOp(&VOp{Kind: MuxOp, Args: []Operand{*cond, val, val}})
			src = Operand{Kind: OpResult, ID: id}
		}
		lw.u.Outs = append(lw.u.Outs, VOut{Kind: OutVecSRAM, SRAM: a.SRAM, Src: src})
	case dhdl.PushFIFO:
		src := val
		if cond != nil {
			// Valid-word coalescing across lanes (Section 2.2).
			id := lw.addOp(&VOp{Kind: MuxOp, Args: []Operand{*cond, val, val}})
			src = Operand{Kind: OpResult, ID: id}
		}
		lw.u.Outs = append(lw.u.Outs, VOut{Kind: OutVecFIFO, FIFO: a.FIFO, Src: src})
	default:
		return fmt.Errorf("compiler: %s: unknown assign kind %v", c.Name, a.Kind)
	}
	return nil
}

// addrOpCount is the number of PMU datapath ops an address expression
// needs; even a pass-through address occupies one stage of the PMU's
// banking/buffering logic.
func addrOpCount(e dhdl.Expr) int {
	if e == nil {
		return 1
	}
	if n := dhdl.CountOps(e); n > 0 {
		return n
	}
	return 1
}

func (lw *lowerer) lowerExpr(e dhdl.Expr) (Operand, error) {
	switch n := e.(type) {
	case *dhdl.Lit:
		return Operand{Kind: ConstOperand, Const: n.V}, nil
	case *dhdl.Ctr:
		return Operand{Kind: CtrIdx, ID: n.Level}, nil
	case *dhdl.RegRd:
		return Operand{Kind: ScalIn, ID: lw.scalIn(n.Reg)}, nil
	case *dhdl.FIFORd:
		key := "fifo:" + n.Mem.Name
		if i, ok := lw.vecKey[key]; ok {
			return Operand{Kind: VecIn, ID: i}, nil
		}
		i := len(lw.u.VecIns)
		lw.u.VecIns = append(lw.u.VecIns, VecInput{FIFO: n.Mem})
		lw.vecKey[key] = i
		return Operand{Kind: VecIn, ID: i}, nil
	case *dhdl.SRAMRd:
		// The read stream's address ops run in the PMU; the PCU sees a
		// vector input. Identical reads (same SRAM, same address pattern)
		// share a stream.
		key := n.Mem.Name + "[" + dhdl.FormatExpr(n.Addr) + "]"
		if i, ok := lw.vecKey[key]; ok {
			return Operand{Kind: VecIn, ID: i}, nil
		}
		m := lw.pmuOf(n.Mem)
		m.Readers++
		m.AddrOps += addrOpCount(n.Addr)
		stride, affineOK := dhdl.LaneStride(n.Addr, lw.laneLevel)
		lw.u.ReadAccess = append(lw.u.ReadAccess, StreamStride{Stride: stride, Affine: affineOK})
		if !affineOK && m.Banking == dhdl.Strided {
			// Per-lane random reads need content duplication across banks;
			// the compiler selects the banking mode (Section 3.2).
			m.Banking = dhdl.Duplication
		}
		i := len(lw.u.VecIns)
		lw.u.VecIns = append(lw.u.VecIns, VecInput{SRAM: n.Mem})
		lw.vecKey[key] = i
		return Operand{Kind: VecIn, ID: i}, nil
	case *dhdl.ToF32:
		x, err := lw.lowerCSE(n.X)
		if err != nil {
			return Operand{}, err
		}
		id := lw.addOp(&VOp{Kind: CastOp, ToF: true, Args: []Operand{x}})
		return Operand{Kind: OpResult, ID: id}, nil
	case *dhdl.ToI32:
		x, err := lw.lowerCSE(n.X)
		if err != nil {
			return Operand{}, err
		}
		id := lw.addOp(&VOp{Kind: CastOp, Args: []Operand{x}})
		return Operand{Kind: OpResult, ID: id}, nil
	case *dhdl.Un:
		x, err := lw.lowerCSE(n.X)
		if err != nil {
			return Operand{}, err
		}
		id := lw.addOp(&VOp{Kind: ALUOp, ALU: n.Op, Args: []Operand{x}})
		return Operand{Kind: OpResult, ID: id}, nil
	case *dhdl.Bin:
		x, err := lw.lowerCSE(n.X)
		if err != nil {
			return Operand{}, err
		}
		y, err := lw.lowerCSE(n.Y)
		if err != nil {
			return Operand{}, err
		}
		id := lw.addOp(&VOp{Kind: ALUOp, ALU: n.Op, Args: []Operand{x, y}})
		return Operand{Kind: OpResult, ID: id}, nil
	case *dhdl.Mux:
		c, err := lw.lowerCSE(n.Cond)
		if err != nil {
			return Operand{}, err
		}
		t, err := lw.lowerCSE(n.T)
		if err != nil {
			return Operand{}, err
		}
		f, err := lw.lowerCSE(n.F)
		if err != nil {
			return Operand{}, err
		}
		id := lw.addOp(&VOp{Kind: MuxOp, Args: []Operand{c, t, f}})
		return Operand{Kind: OpResult, ID: id}, nil
	}
	return Operand{}, fmt.Errorf("compiler: cannot lower %T", e)
}

// raiseNBuffers sets each PMU's buffering depth from coarse-grained
// pipeline structure: an SRAM written by child i and read by child j of a
// Pipeline controller needs M = j-i+1 buffers (Section 3.5).
func raiseNBuffers(p *dhdl.Program, pmus map[*dhdl.SRAM]*VirtualPMU) {
	p.Walk(func(c *dhdl.Controller) {
		if c.Kind != dhdl.Pipeline {
			return
		}
		writeStage := map[*dhdl.SRAM]int{}
		for i, ch := range c.Children {
			subtreeSRAMs(ch, (*dhdl.Controller).Writes, func(s *dhdl.SRAM) {
				if _, ok := writeStage[s]; !ok {
					writeStage[s] = i
				}
			})
		}
		for j, ch := range c.Children {
			subtreeSRAMs(ch, (*dhdl.Controller).Reads, func(s *dhdl.SRAM) {
				if i, ok := writeStage[s]; ok && j > i {
					if m := pmus[s]; m != nil && j-i+1 > m.NBuf {
						m.NBuf = j - i + 1
					}
				}
			})
		}
	})
}

// subtreeSRAMs calls f with each SRAM in mems of every leaf under c.
func subtreeSRAMs(c *dhdl.Controller, mems func(*dhdl.Controller) []any, f func(*dhdl.SRAM)) {
	c.Walk(func(l *dhdl.Controller) {
		for _, m := range mems(l) {
			if s, ok := m.(*dhdl.SRAM); ok {
				f(s)
			}
		}
	})
}
