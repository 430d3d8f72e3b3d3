package dhdl

import (
	"fmt"

	"plasticine/internal/pattern"
)

// This file keeps the original tree-walking interpreter as the test oracle
// for the compiled one in interp.go and compile.go. It walks expression
// trees with a type switch per node and keeps every memory in a Go map, so
// it is slow, but it is short enough to read as the IR's semantics. The
// differential tests require the compiled interpreter to reproduce its
// memories, DRAM contents and execution events bit for bit.

// refState is the oracle's memory: the same content State exposes, keyed
// by object.
type refState struct {
	sram  map[*SRAM][]pattern.Value
	regs  map[*Reg]pattern.Value
	fifos map[*FIFOMem][]pattern.Value
}

func (s *refState) SRAMData(m *SRAM) []pattern.Value    { return s.sram[m] }
func (s *refState) RegValue(r *Reg) pattern.Value       { return s.regs[r] }
func (s *refState) FIFOData(f *FIFOMem) []pattern.Value { return s.fifos[f] }

// traceReference is Trace on the tree-walking oracle.
func traceReference(p *Program, hook ExecHook) (st *refState, err error) {
	if ferr := p.Finalize(); ferr != nil {
		return nil, ferr
	}
	for _, d := range p.DRAMs {
		if d.Data == nil {
			return nil, fmt.Errorf("dhdl interp: DRAM buffer %q not bound", d.Name)
		}
	}
	st = &refState{
		sram:  make(map[*SRAM][]pattern.Value),
		regs:  make(map[*Reg]pattern.Value),
		fifos: make(map[*FIFOMem][]pattern.Value),
	}
	for _, s := range p.SRAMs {
		buf := make([]pattern.Value, s.Size)
		zero := pattern.VF(0)
		if s.Elem == pattern.I32 {
			zero = pattern.VI(0)
		}
		for i := range buf {
			buf[i] = zero
		}
		st.sram[s] = buf
	}
	for _, r := range p.Regs {
		st.regs[r] = r.Init
	}
	defer func() {
		if r := recover(); r != nil {
			if ie, ok := r.(interpError); ok {
				st, err = nil, ie.err
				return
			}
			if pe, ok := r.(*pattern.EvalError); ok {
				st, err = nil, fmt.Errorf("dhdl interp: %w", pe)
				return
			}
			panic(r)
		}
	}()
	in := &refInterp{st: st, hook: hook}
	in.runCtrl(p.Root, make([]int32, 0, 8))
	return st, nil
}

type refInterp struct {
	st   *refState
	hook ExecHook
	path []*Controller
}

func (in *refInterp) emit(ev *ExecEvent, env []int32) {
	if in.hook == nil {
		return
	}
	ev.Path = append([]*Controller(nil), in.path...)
	ev.Env = append([]int32(nil), env...)
	in.hook(ev)
}

// chainIter iterates a counter chain in row-major order, extending env with
// the current index values and invoking f for each combination.
func (in *refInterp) chainIter(chain []Counter, env []int32, f func(env []int32)) {
	if len(chain) == 0 {
		f(env)
		return
	}
	c := chain[0]
	max := int32(c.Max)
	if c.MaxReg != nil {
		v := in.st.regs[c.MaxReg]
		if v.T != pattern.I32 {
			ifail("dynamic counter limit register %q is not i32", c.MaxReg.Name)
		}
		max = v.I
	}
	for i := int32(c.Min); i < max; i += int32(c.Step) {
		in.chainIter(chain[1:], append(env, i), f)
	}
}

func (in *refInterp) runCtrl(c *Controller, env []int32) {
	in.path = append(in.path, c)
	defer func() { in.path = in.path[:len(in.path)-1] }()
	switch {
	case c.Kind.IsOuter():
		in.chainIter(c.Chain, env, func(env []int32) {
			for _, ch := range c.Children {
				in.runCtrl(ch, env)
			}
		})
	case c.Kind == ComputeKind:
		iters := in.runCompute(c, env)
		in.emit(&ExecEvent{Ctrl: c, Iters: iters}, env)
	default:
		in.chainIter(c.Chain, env, func(env []int32) {
			ev := in.runTransfer(c, env)
			ev.Ctrl = c
			in.emit(ev, env)
		})
	}
}

func (in *refInterp) runCompute(c *Controller, env []int32) int64 {
	acc := make(map[*Assign]pattern.Value)
	for _, a := range c.Body {
		if a.Kind == ReduceReg {
			acc[a] = a.Reg.Init
		}
	}
	type commit struct {
		a    *Assign
		addr int
		v    pattern.Value
	}
	var pending []commit
	var iters int64
	in.chainIter(c.Chain, env, func(env []int32) {
		iters++
		pending = pending[:0]
		for _, a := range c.Body {
			if a.Cond != nil && !in.eval(a.Cond, env).B {
				continue
			}
			v := in.eval(a.Val, env)
			addr := -1
			if a.Kind == WriteSRAM || a.Kind == ReduceSRAM {
				addr = in.evalAddr(a.Addr, env, a.SRAM)
			}
			pending = append(pending, commit{a, addr, v})
		}
		for _, p := range pending {
			switch p.a.Kind {
			case WriteSRAM:
				in.sramWrite(p.a.SRAM, p.addr, p.v)
			case WriteReg:
				in.st.regs[p.a.Reg] = p.v
			case ReduceReg:
				acc[p.a] = pattern.EvalOp(p.a.Combine, acc[p.a], p.v)
			case ReduceSRAM:
				old := in.st.sram[p.a.SRAM][p.addr]
				in.sramWrite(p.a.SRAM, p.addr, pattern.EvalOp(p.a.Combine, old, p.v))
			case PushFIFO:
				in.st.fifos[p.a.FIFO] = append(in.st.fifos[p.a.FIFO], p.v)
			}
		}
	})
	// Body order, so a register two reductions share ends with the last.
	for _, a := range c.Body {
		if a.Kind == ReduceReg {
			in.st.regs[a.Reg] = acc[a]
		}
	}
	return iters
}

func (in *refInterp) evalAddr(e Expr, env []int32, s *SRAM) int {
	v := in.eval(e, env)
	if v.T != pattern.I32 {
		ifail("address into %q is %v, want i32", s.Name, v.T)
	}
	a := int(v.I)
	if a < 0 || a >= s.Size {
		ifail("address %d out of range [0,%d) in SRAM %q", a, s.Size, s.Name)
	}
	return a
}

func (in *refInterp) sramWrite(s *SRAM, addr int, v pattern.Value) {
	if v.T != s.Elem {
		ifail("writing %v into SRAM %q of type %v", v.T, s.Name, s.Elem)
	}
	in.st.sram[s][addr] = v
}

func (in *refInterp) dramRead(d *DRAMBuf, i int) pattern.Value {
	if i < 0 || i >= d.Len() {
		ifail("DRAM %q read at %d out of range [0,%d)", d.Name, i, d.Len())
	}
	if d.Elem == pattern.F32 {
		return pattern.VF(d.Data.F32Data()[i])
	}
	return pattern.VI(d.Data.I32Data()[i])
}

func (in *refInterp) dramWrite(d *DRAMBuf, i int, v pattern.Value) {
	if i < 0 || i >= d.Len() {
		ifail("DRAM %q write at %d out of range [0,%d)", d.Name, i, d.Len())
	}
	if v.T != d.Elem {
		ifail("writing %v into DRAM %q of type %v", v.T, d.Name, d.Elem)
	}
	if d.Elem == pattern.F32 {
		d.Data.F32Data()[i] = v.F
	} else {
		d.Data.I32Data()[i] = v.I
	}
}

func (in *refInterp) runTransfer(c *Controller, env []int32) *ExecEvent {
	x := c.Xfer
	off := 0
	if x.Off != nil {
		off = int(in.eval(x.Off, env).I)
	}
	sramOff := 0
	if x.SRAMOff != nil {
		sramOff = int(in.eval(x.SRAMOff, env).I)
	}
	count := x.Count
	if x.CountReg != nil {
		count = int(in.st.regs[x.CountReg].I)
	}
	ev := &ExecEvent{Buf: x.DRAM, DenseOff: off, Write: c.Kind == StoreKind || c.Kind == ScatterKind}
	switch c.Kind {
	case LoadKind:
		ev.DenseLen = x.Len
		for i := 0; i < x.Len; i++ {
			v := in.dramRead(x.DRAM, off+i)
			if x.SRAM != nil {
				if sramOff+i >= x.SRAM.Size {
					ifail("load %q overflows SRAM %q at %d", c.Name, x.SRAM.Name, sramOff+i)
				}
				in.sramWrite(x.SRAM, sramOff+i, v)
			} else {
				in.st.fifos[x.FIFO] = append(in.st.fifos[x.FIFO], v)
			}
		}
	case StoreKind:
		if x.FIFO != nil {
			q := in.st.fifos[x.FIFO]
			if count > len(q) {
				ifail("store %q pops %d from FIFO %q holding %d", c.Name, count, x.FIFO.Name, len(q))
			}
			for i := 0; i < count; i++ {
				in.dramWrite(x.DRAM, off+i, q[i])
			}
			in.st.fifos[x.FIFO] = q[count:]
			ev.DenseLen = count
			return ev
		}
		ev.DenseLen = x.Len
		for i := 0; i < x.Len; i++ {
			if sramOff+i < 0 || sramOff+i >= x.SRAM.Size {
				ifail("store %q reads past SRAM %q at %d", c.Name, x.SRAM.Name, sramOff+i)
			}
			in.dramWrite(x.DRAM, off+i, in.st.sram[x.SRAM][sramOff+i])
		}
	case GatherKind:
		for i := 0; i < count; i++ {
			av := in.addrStreamAt(c, i)
			ev.SparseAddrs = append(ev.SparseAddrs, av)
			v := in.dramRead(x.DRAM, off+int(av))
			if x.SRAM != nil {
				if i >= x.SRAM.Size {
					ifail("gather %q overflows SRAM %q at %d", c.Name, x.SRAM.Name, i)
				}
				in.sramWrite(x.SRAM, i, v)
			} else {
				in.st.fifos[x.FIFO] = append(in.st.fifos[x.FIFO], v)
			}
		}
	case ScatterKind:
		for i := 0; i < count; i++ {
			av := in.addrStreamAt(c, i)
			ev.SparseAddrs = append(ev.SparseAddrs, av)
			var v pattern.Value
			if x.DataMem != nil {
				if i >= x.DataMem.Size {
					ifail("scatter %q reads past SRAM %q at %d", c.Name, x.DataMem.Name, i)
				}
				v = in.st.sram[x.DataMem][i]
			} else {
				q := in.st.fifos[x.DataFIFO]
				if len(q) == 0 {
					ifail("scatter %q pops empty FIFO %q", c.Name, x.DataFIFO.Name)
				}
				v, in.st.fifos[x.DataFIFO] = q[0], q[1:]
			}
			in.dramWrite(x.DRAM, off+int(av), v)
		}
	}
	return ev
}

func (in *refInterp) addrStreamAt(c *Controller, i int) int32 {
	x := c.Xfer
	if x.AddrMem != nil {
		if i >= x.AddrMem.Size {
			ifail("transfer %q reads past address SRAM %q at %d", c.Name, x.AddrMem.Name, i)
		}
		v := in.st.sram[x.AddrMem][i]
		if v.T != pattern.I32 {
			ifail("transfer %q address stream is not i32", c.Name)
		}
		return v.I
	}
	q := in.st.fifos[x.AddrFIFO]
	if len(q) == 0 {
		ifail("transfer %q pops empty address FIFO %q", c.Name, x.AddrFIFO.Name)
	}
	v := q[0]
	in.st.fifos[x.AddrFIFO] = q[1:]
	return v.I
}

func (in *refInterp) eval(e Expr, env []int32) pattern.Value {
	switch n := e.(type) {
	case *Lit:
		return n.V
	case *Ctr:
		if n.Level >= len(env) {
			ifail("counter level %d read with %d levels in scope", n.Level, len(env))
		}
		return pattern.VI(env[n.Level])
	case *RegRd:
		return in.st.regs[n.Reg]
	case *SRAMRd:
		return in.st.sram[n.Mem][in.evalAddr(n.Addr, env, n.Mem)]
	case *FIFORd:
		q := in.st.fifos[n.Mem]
		if len(q) == 0 {
			ifail("pop from empty FIFO %q", n.Mem.Name)
		}
		v := q[0]
		in.st.fifos[n.Mem] = q[1:]
		return v
	case *ToF32:
		return pattern.VF(float32(in.eval(n.X, env).I))
	case *ToI32:
		return pattern.VI(int32(in.eval(n.X, env).F))
	case *Mux:
		if in.eval(n.Cond, env).B {
			return in.eval(n.T, env)
		}
		return in.eval(n.F, env)
	case *Un:
		return pattern.EvalUnary(n.Op, in.eval(n.X, env))
	case *Bin:
		return pattern.EvalOp(n.Op, in.eval(n.X, env), in.eval(n.Y, env))
	}
	ifail("cannot evaluate %T", e)
	return pattern.Value{}
}
