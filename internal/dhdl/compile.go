package dhdl

import (
	"fmt"
	"math"

	"plasticine/internal/pattern"
)

// This file lowers Compute bodies for the interpreter. Each expression
// becomes a closure that yields its value as a 32-bit word; its static type
// is fixed while compiling, so the closure runs the one op it needs with no
// type switch. Addresses that AnalyzeAffine proves affine become registers
// that step by a constant stride as the counters advance.

// word is a compiled expression: it yields the expression's value as the
// word it would occupy in memory.
type word func() uint32

func constWord(w uint32) word { return func() uint32 { return w } }

func fv(w uint32) float32 { return math.Float32frombits(w) }
func fw(f float32) uint32 { return math.Float32bits(f) }

// exprCompiler compiles the expressions of one leaf controller.
type exprCompiler struct {
	pc  *progCompiler
	ctl *Controller
	// aff holds the affine address registers of a compute leaf, keyed by
	// address expression; nil for transfers.
	aff map[Expr]*int32
}

// typed compiles e and fails unless its static type is want.
func (ec *exprCompiler) typed(e Expr, want pattern.Type, what string) word {
	fn, t := ec.expr(e)
	if t != want {
		ifail("%s %q: %s is %v, want %v", ec.ctl.Kind, ec.ctl.Name, what, t, want)
	}
	return fn
}

func (ec *exprCompiler) expr(e Expr) (word, pattern.Type) {
	switch n := e.(type) {
	case *Lit:
		return constWord(toWord(n.V)), n.V.T
	case *Ctr:
		// Finalize checks most expressions' levels, not every one.
		if scope := ec.ctl.Depth + len(ec.ctl.Chain); n.Level < 0 || n.Level >= scope {
			ifail("counter level %d read with %d levels in scope", n.Level, scope)
		}
		p := &ec.pc.env[n.Level]
		return func() uint32 { return uint32(*p) }, pattern.I32
	case *RegRd:
		p := ec.pc.reg(n.Reg)
		return func() uint32 { return *p }, n.Reg.Elem
	case *SRAMRd:
		return ec.load(n), n.Mem.Elem
	case *FIFORd:
		q, f := ec.pc.fifo(n.Mem), n.Mem
		return func() uint32 {
			w, ok := q.pop()
			if !ok {
				ifail("pop from empty FIFO %q", f.Name)
			}
			return w
		}, f.Elem
	case *ToF32:
		x := ec.typed(n.X, pattern.I32, "ToF32 operand")
		return func() uint32 { return fw(float32(int32(x()))) }, pattern.F32
	case *ToI32:
		x := ec.typed(n.X, pattern.F32, "ToI32 operand")
		return func() uint32 { return uint32(int32(fv(x()))) }, pattern.I32
	case *Mux:
		cond := ec.typed(n.Cond, pattern.Bool, "mux condition")
		t, tt := ec.expr(n.T)
		f := ec.typed(n.F, tt, "mux false arm")
		return func() uint32 {
			if cond() != 0 {
				return t()
			}
			return f()
		}, tt
	case *Un:
		x, t := ec.expr(n.X)
		op, rt := unary(n.Op, t)
		if op == nil {
			ifail("%s %q: no %v op on %v", ec.ctl.Kind, ec.ctl.Name, n.Op, t)
		}
		return func() uint32 { return op(x()) }, rt
	case *Bin:
		x, t := ec.expr(n.X)
		y := ec.typed(n.Y, t, fmt.Sprintf("right operand of %v", n.Op))
		op, rt := binary(n.Op, t)
		if op == nil {
			ifail("%s %q: no %v op on %v", ec.ctl.Kind, ec.ctl.Name, n.Op, t)
		}
		return func() uint32 { return op(x(), y()) }, rt
	}
	ifail("cannot evaluate %T", e)
	return nil, 0
}

// load compiles an SRAM read. An affine address reads its register; any
// other address is evaluated per access.
func (ec *exprCompiler) load(n *SRAMRd) word {
	mem, m := ec.pc.sram(n.Mem), n.Mem
	if p := ec.aff[n.Addr]; p != nil {
		return func() uint32 {
			a := *p
			if a < 0 || int(a) >= len(mem) {
				addrFail(a, m)
			}
			return mem[a]
		}
	}
	at := ec.typed(n.Addr, pattern.I32, "address into "+m.Name)
	return func() uint32 {
		a := int32(at())
		if a < 0 || int(a) >= len(mem) {
			addrFail(a, m)
		}
		return mem[a]
	}
}

// address compiles the range-checked address of an SRAM write. An affine
// address comes back as its register, any other as a closure.
func (ec *exprCompiler) address(e Expr, m *SRAM) (*int32, func() int32) {
	if p := ec.aff[e]; p != nil {
		return p, nil
	}
	at, size := ec.typed(e, pattern.I32, "address into "+m.Name), int32(len(ec.pc.sram(m)))
	return nil, func() int32 {
		a := int32(at())
		if a < 0 || a >= size {
			addrFail(a, m)
		}
		return a
	}
}

func addrFail(a int32, m *SRAM) {
	ifail("address %d out of range [0,%d) in SRAM %q", a, m.Size, m.Name)
}

// unary returns op on words of type t and its result type; nil when the
// pattern package's FU semantics define no such op.
func unary(op pattern.Op, t pattern.Type) (func(uint32) uint32, pattern.Type) {
	switch {
	case t == pattern.Bool && op == pattern.Not:
		return func(a uint32) uint32 { return a ^ 1 }, pattern.Bool
	case t == pattern.I32 && op == pattern.Neg:
		return func(a uint32) uint32 { return uint32(-int32(a)) }, t
	case t == pattern.I32 && op == pattern.Abs:
		return func(a uint32) uint32 {
			if int32(a) < 0 {
				return uint32(-int32(a))
			}
			return a
		}, t
	case t != pattern.F32:
		return nil, 0
	}
	switch op {
	case pattern.Neg:
		return func(a uint32) uint32 { return fw(-fv(a)) }, t
	case pattern.Abs:
		return func(a uint32) uint32 { return fw(float32(math.Abs(float64(fv(a))))) }, t
	case pattern.Exp:
		return func(a uint32) uint32 { return fw(float32(math.Exp(float64(fv(a))))) }, t
	case pattern.Log:
		return func(a uint32) uint32 { return fw(float32(math.Log(float64(fv(a))))) }, t
	case pattern.Sqrt:
		return func(a uint32) uint32 { return fw(float32(math.Sqrt(float64(fv(a))))) }, t
	case pattern.Rcp:
		return func(a uint32) uint32 { return fw(1 / fv(a)) }, t
	}
	return nil, 0
}

// binary returns op on two words of type t and its result type; nil when
// the pattern package's FU semantics define no such op.
func binary(op pattern.Op, t pattern.Type) (func(a, b uint32) uint32, pattern.Type) {
	switch t {
	case pattern.Bool:
		switch op {
		case pattern.And:
			return func(a, b uint32) uint32 { return a & b }, t
		case pattern.Or:
			return func(a, b uint32) uint32 { return a | b }, t
		case pattern.Eq:
			return func(a, b uint32) uint32 { return boolWord(a == b) }, t
		case pattern.Ne:
			return func(a, b uint32) uint32 { return boolWord(a != b) }, t
		}
	case pattern.F32:
		switch op {
		case pattern.Add:
			return func(a, b uint32) uint32 { return fw(fv(a) + fv(b)) }, t
		case pattern.Sub:
			return func(a, b uint32) uint32 { return fw(fv(a) - fv(b)) }, t
		case pattern.Mul:
			return func(a, b uint32) uint32 { return fw(fv(a) * fv(b)) }, t
		case pattern.Div:
			return func(a, b uint32) uint32 { return fw(fv(a) / fv(b)) }, t
		case pattern.Min:
			return func(a, b uint32) uint32 { return fw(float32(math.Min(float64(fv(a)), float64(fv(b))))) }, t
		case pattern.Max:
			return func(a, b uint32) uint32 { return fw(float32(math.Max(float64(fv(a)), float64(fv(b))))) }, t
		case pattern.Lt:
			return func(a, b uint32) uint32 { return boolWord(fv(a) < fv(b)) }, pattern.Bool
		case pattern.Le:
			return func(a, b uint32) uint32 { return boolWord(fv(a) <= fv(b)) }, pattern.Bool
		case pattern.Gt:
			return func(a, b uint32) uint32 { return boolWord(fv(a) > fv(b)) }, pattern.Bool
		case pattern.Ge:
			return func(a, b uint32) uint32 { return boolWord(fv(a) >= fv(b)) }, pattern.Bool
		case pattern.Eq:
			return func(a, b uint32) uint32 { return boolWord(fv(a) == fv(b)) }, pattern.Bool
		case pattern.Ne:
			return func(a, b uint32) uint32 { return boolWord(fv(a) != fv(b)) }, pattern.Bool
		}
	case pattern.I32:
		switch op {
		case pattern.Add:
			return func(a, b uint32) uint32 { return a + b }, t
		case pattern.Sub:
			return func(a, b uint32) uint32 { return a - b }, t
		case pattern.Mul:
			return func(a, b uint32) uint32 { return uint32(int32(a) * int32(b)) }, t
		case pattern.Div, pattern.Mod:
			div := op == pattern.Div
			return func(a, b uint32) uint32 {
				if b == 0 {
					// The reference semantics report the error.
					pattern.EvalOp(op, pattern.VI(int32(a)), pattern.VI(0))
				}
				if div {
					return uint32(int32(a) / int32(b))
				}
				return uint32(int32(a) % int32(b))
			}, t
		case pattern.Min:
			return func(a, b uint32) uint32 { return uint32(min(int32(a), int32(b))) }, t
		case pattern.Max:
			return func(a, b uint32) uint32 { return uint32(max(int32(a), int32(b))) }, t
		case pattern.Lt:
			return func(a, b uint32) uint32 { return boolWord(int32(a) < int32(b)) }, pattern.Bool
		case pattern.Le:
			return func(a, b uint32) uint32 { return boolWord(int32(a) <= int32(b)) }, pattern.Bool
		case pattern.Gt:
			return func(a, b uint32) uint32 { return boolWord(int32(a) > int32(b)) }, pattern.Bool
		case pattern.Ge:
			return func(a, b uint32) uint32 { return boolWord(int32(a) >= int32(b)) }, pattern.Bool
		case pattern.Eq:
			return func(a, b uint32) uint32 { return boolWord(a == b) }, pattern.Bool
		case pattern.Ne:
			return func(a, b uint32) uint32 { return boolWord(a != b) }, pattern.Bool
		}
	}
	return nil, 0
}

// affineRegs steps the affine addresses of one compute leaf. Each distinct
// affine form f keeps k+1 partial sums, k being the leaf's own chain length:
// vals[f*(k+1)] is its constant plus the counters above the leaf, fixed for
// one leaf execution, and vals[f*(k+1)+j+1] adds own counter j. The last
// one is the address. Entering the loop of counter j sets partial j+1 from
// partial j and the counter's start; each step of that loop adds a
// constant stride.
type affineRegs struct {
	vals  []int32
	base  []affineBase
	enter [][]affineShift // per own counter: every form's partial set on loop entry
	step  [][]affineShift // per own counter: forms whose address moves with it
}

// affineBase is one form's part that is fixed for a leaf execution.
type affineBase struct {
	at    int
	c     int32
	outer []affineTerm
}

type affineTerm struct {
	level int
	coeff int32
}

// affineShift sets vals[to] to vals[to-1]+d on loop entry, or adds d to
// vals[to] after each iteration.
type affineShift struct {
	to int
	d  int32
}

// affineAddrs registers every affine SRAM address in the leaf's body,
// sharing one register between equal forms. All arithmetic wraps at 32
// bits, exactly as the i32 adds and multiplies it replaces.
func (c *progCompiler) affineAddrs(ctl *Controller) (*affineRegs, map[Expr]*int32) {
	k := len(ctl.Chain)
	r := &affineRegs{enter: make([][]affineShift, k), step: make([][]affineShift, k)}
	forms := map[string]int{}
	var exprs []Expr
	var formOf []int
	consider := func(e Expr) {
		a, ok := AnalyzeAffine(e)
		if !ok {
			return
		}
		own := make([]int32, k)
		var base affineBase
		base.c = int32(a.Const)
		for l := 0; l < ctl.Depth; l++ {
			if co := a.Coeff[l]; co != 0 {
				base.outer = append(base.outer, affineTerm{l, int32(co)})
			}
		}
		for j := range own {
			own[j] = int32(a.Coeff[ctl.Depth+j])
		}
		key := fmt.Sprint(base.c, base.outer, own)
		f, seen := forms[key]
		if !seen {
			f = len(r.base)
			forms[key] = f
			base.at = f * (k + 1)
			r.base = append(r.base, base)
			for j, co := range own {
				at := base.at + j + 1
				r.enter[j] = append(r.enter[j], affineShift{at, co * int32(ctl.Chain[j].Min)})
				if co != 0 {
					r.step[j] = append(r.step[j], affineShift{at, co * int32(ctl.Chain[j].Step)})
				}
			}
		}
		exprs = append(exprs, e)
		formOf = append(formOf, f)
	}
	for _, a := range ctl.Body {
		if a.Kind == WriteSRAM || a.Kind == ReduceSRAM {
			consider(a.Addr)
		}
		for _, e := range []Expr{a.Cond, a.Val, a.Addr} {
			if e != nil {
				Walk(e, func(x Expr) {
					if rd, ok := x.(*SRAMRd); ok {
						consider(rd.Addr)
					}
				})
			}
		}
	}
	r.vals = make([]int32, len(r.base)*(k+1))
	regs := make(map[Expr]*int32, len(exprs))
	for i, e := range exprs {
		regs[e] = &r.vals[formOf[i]*(k+1)+k]
	}
	return r, regs
}

// start computes each form's fixed part for one leaf execution.
func (r *affineRegs) start(env []int32) {
	for _, b := range r.base {
		v := b.c
		for _, t := range b.outer {
			v += t.coeff * env[t.level]
		}
		r.vals[b.at] = v
	}
}

// compute compiles a Compute leaf into a closure that runs one execution
// of it: every iteration of its own counter chain, then its event.
//
// Within one iteration every assign observes the pre-iteration state (the
// hardware computes all outputs from the same pipeline inputs), and writes
// commit together at the end of the iteration. FIFO pops during evaluation
// still consume in assign order. When no assign reads a memory an earlier
// assign writes, committing each assign right after evaluating it is
// indistinguishable, and the body runs that way.
//
// A body that laneEligible admits runs a tile of lanes at a time instead
// (see lanes.go): whole rows of its next-outer counter where they fit,
// blocks of its innermost counter otherwise. A tile that faults reruns its
// rows one at a time, and a block that faults reruns its lanes here, one
// iteration at a time.
func (c *progCompiler) compute(ctl *Controller) func() {
	env := c.env
	aff, regs := c.affineAddrs(ctl)
	ec := &exprCompiler{pc: c, ctl: ctl, aff: regs}
	loops := make([]counterLoop, len(ctl.Chain))
	for j, ctr := range ctl.Chain {
		loops[j] = c.counter(ctr, ctl.Depth+j)
	}
	var resets, finishes []func()
	evals := make([]func() bool, len(ctl.Body))
	commits := make([]func(), len(ctl.Body))
	steps := make([]func(), len(ctl.Body))
	accs := make([]*uint32, len(ctl.Body))
	for i, a := range ctl.Body {
		ca := ec.assign(a)
		evals[i], commits[i], steps[i], accs[i] = ca.eval, ca.commit, ca.step, ca.acc
		if ca.reset != nil {
			resets, finishes = append(resets, ca.reset), append(finishes, ca.finish)
		}
	}
	var lanes *laneBody
	if laneEligible(ctl) {
		lanes = c.laneBody(ctl, ec, accs, aff)
	}
	iter := fused(evals, commits, steps)
	if conflicts(ctl.Body) {
		fired := make([]bool, len(evals))
		iter = func() {
			for i, e := range evals {
				fired[i] = e()
			}
			for i, cm := range commits {
				if fired[i] {
					cm()
				}
			}
		}
	}
	observe := func(index, rows int, faulted bool) {}
	if c.onTile != nil {
		observe = func(index, rows int, faulted bool) {
			c.onTile(ctl, laneTile{index: index, rows: rows, fused: lanes.fused, faulted: faulted})
		}
	}

	var iters int64
	var loop func(j int)
	loop = func(j int) {
		lp := &loops[j]
		for _, s := range aff.enter[j] {
			aff.vals[s.to] = aff.vals[s.to-1] + s.d
		}
		shifts, last := aff.step[j], j == len(loops)-1
		switch {
		case lanes != nil && lanes.tile > 1 && j == len(loops)-2:
			// Tiles of whole rows; a last row alone, and the rows of a
			// tile that faulted, run one at a time below.
			in, cols := &loops[j+1], lanes.rowLen
			for t, i, max := 0, lp.min, lp.limit(); i < max; t++ {
				rows := span(i, max, lp.step, lanes.tile)
				if rows > 1 {
					env[lp.level], env[in.level] = i, in.min
					for _, s := range aff.enter[j+1] {
						aff.vals[s.to] = aff.vals[s.to-1] + s.d
					}
					ok := lanes.eval(rows, cols)
					observe(t, rows, !ok)
					if ok {
						lanes.commit()
						iters += int64(rows * cols)
						env[lp.level] = i + int32(rows-1)*lp.step
						env[in.level] = in.min + int32(cols-1)*in.step
						for _, s := range shifts {
							aff.vals[s.to] += s.d * int32(rows)
						}
						i += int32(rows) * lp.step
						continue
					}
				}
				for r := 0; r < rows; r++ {
					env[lp.level] = i
					loop(j + 1)
					for _, s := range shifts {
						aff.vals[s.to] += s.d
					}
					i += lp.step
				}
			}
		case last && lanes != nil:
			for b, i, max := 0, lp.min, lp.limit(); i < max; b++ {
				n := span(i, max, lp.step, laneBlock)
				iters += int64(n)
				env[lp.level] = i
				replay := !lanes.eval(1, n)
				observe(b, 1, replay)
				if replay {
					for k := 0; k < n; k++ {
						env[lp.level] = i
						iter()
						for _, s := range shifts {
							aff.vals[s.to] += s.d
						}
						i += lp.step
					}
					continue
				}
				lanes.commit()
				env[lp.level] = i + int32(n-1)*lp.step
				for _, s := range shifts {
					aff.vals[s.to] += s.d * int32(n)
				}
				i += int32(n) * lp.step
			}
		default:
			for i, max := lp.min, lp.limit(); i < max; i += lp.step {
				env[lp.level] = i
				if last {
					iters++
					iter()
				} else {
					loop(j + 1)
				}
				for _, s := range shifts {
					aff.vals[s.to] += s.d
				}
			}
		}
	}
	emit := c.emitter(ctl.Depth)
	return func() {
		// Reduction accumulators reset at the start of each execution.
		for _, r := range resets {
			r()
		}
		aff.start(env)
		iters = 0
		if len(loops) == 0 {
			iters = 1
			iter()
		} else {
			loop(0)
		}
		for _, f := range finishes {
			f()
		}
		if emit != nil {
			emit(ExecEvent{Ctrl: ctl, Iters: iters})
		}
	}
}

// fused runs each assign's commit right after its evaluation, in one
// call where the assign has a step.
func fused(evals []func() bool, commits, steps []func()) func() {
	for i, e := range evals {
		if steps[i] == nil {
			cm := commits[i]
			steps[i] = func() {
				if e() {
					cm()
				}
			}
		}
	}
	if len(steps) == 1 {
		return steps[0]
	}
	return func() {
		for _, s := range steps {
			s()
		}
	}
}

// conflicts reports whether some assign reads a memory that an earlier
// assign of the same body writes, so commits must wait for the whole
// iteration. Reductions into registers write only their accumulator until
// the execution ends, and never conflict.
func conflicts(body []*Assign) bool {
	written := map[any]bool{}
	for _, a := range body {
		for _, m := range a.reads(nil) {
			if written[m] {
				return true
			}
		}
		switch a.Kind {
		case WriteSRAM, ReduceSRAM:
			written[a.SRAM] = true
		case WriteReg:
			written[a.Reg] = true
		case PushFIFO:
			written[a.FIFO] = true
		}
	}
	return false
}

// compiledAssign is one output of a Compute body: eval computes its value
// (and address) for this iteration and reports whether its condition held;
// commit stores it. For the commonest unconditional shapes step does both
// in one call; otherwise it is nil. Reductions into a register also have
// reset and finish, which start and end the accumulation around one
// execution, and acc, the accumulator between them.
type compiledAssign struct {
	eval          func() bool
	commit, step  func()
	reset, finish func()
	acc           *uint32
}

// assign compiles one output of a Compute body.
func (ec *exprCompiler) assign(a *Assign) compiledAssign {
	var eval func() bool
	var commit, step func()
	var cond word
	if a.Cond != nil {
		cond = ec.typed(a.Cond, pattern.Bool, "condition")
	}
	var elem pattern.Type
	switch a.Kind {
	case WriteSRAM, ReduceSRAM:
		elem = a.SRAM.Elem
	case WriteReg, ReduceReg:
		elem = a.Reg.Elem
	case PushFIFO:
		elem = a.FIFO.Elem
	default:
		ifail("%s %q: unknown assign kind %d", ec.ctl.Kind, ec.ctl.Name, a.Kind)
	}
	val := ec.typed(a.Val, elem, a.Kind.String()+" value")
	var v uint32
	var addr int32
	var affAddr *int32
	at := func() int32 { return 0 }
	if a.Kind == WriteSRAM || a.Kind == ReduceSRAM {
		affAddr, at = ec.address(a.Addr, a.SRAM)
	}
	switch {
	case affAddr != nil:
		size := int32(a.SRAM.Size)
		eval = func() bool {
			if cond != nil && cond() == 0 {
				return false
			}
			v, addr = val(), *affAddr
			if addr < 0 || addr >= size {
				addrFail(addr, a.SRAM)
			}
			return true
		}
	case cond == nil:
		eval = func() bool { v, addr = val(), at(); return true }
	default:
		eval = func() bool {
			if cond() == 0 {
				return false
			}
			v, addr = val(), at()
			return true
		}
	}

	var combine func(a, b uint32) uint32
	if a.Kind == ReduceReg || a.Kind == ReduceSRAM {
		if combine, _ = binary(a.Combine, elem); combine == nil {
			ifail("%s %q: no %v op on %v to combine with", ec.ctl.Kind, ec.ctl.Name, a.Combine, elem)
		}
	}
	// Sums are the commonest reductions; they skip the call through the
	// op table.
	fsum := combine != nil && a.Combine == pattern.Add && elem == pattern.F32
	switch a.Kind {
	case WriteSRAM:
		mem := ec.pc.sram(a.SRAM)
		commit = func() { mem[addr] = v }
		if cond == nil && affAddr != nil {
			step = func() {
				v := val()
				i := *affAddr
				if i < 0 || int(i) >= len(mem) {
					addrFail(i, a.SRAM)
				}
				mem[i] = v
			}
		}
	case ReduceSRAM:
		mem := ec.pc.sram(a.SRAM)
		commit = func() { mem[addr] = combine(mem[addr], v) }
		if fsum {
			commit = func() { mem[addr] = fw(fv(mem[addr]) + fv(v)) }
		}
		if fsum && cond == nil && affAddr != nil {
			step = func() {
				v := val()
				i := *affAddr
				if i < 0 || int(i) >= len(mem) {
					addrFail(i, a.SRAM)
				}
				mem[i] = fw(fv(mem[i]) + fv(v))
			}
		}
	case WriteReg:
		r := ec.pc.reg(a.Reg)
		commit = func() { *r = v }
	case ReduceReg:
		r, init := ec.pc.reg(a.Reg), toWord(a.Reg.Init)
		var acc uint32
		commit = func() { acc = combine(acc, v) }
		if fsum {
			commit = func() { acc = fw(fv(acc) + fv(v)) }
		}
		if fsum && cond == nil {
			step = func() { acc = fw(fv(acc) + fv(val())) }
		}
		return compiledAssign{eval: eval, commit: commit, step: step,
			reset: func() { acc = init }, finish: func() { *r = acc }, acc: &acc}
	case PushFIFO:
		q := ec.pc.fifo(a.FIFO)
		commit = func() { q.push(v) }
	}
	return compiledAssign{eval: eval, commit: commit, step: step}
}
