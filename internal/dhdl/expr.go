package dhdl

import "plasticine/internal/pattern"

// Expr is a dataflow expression inside a Compute body. Expressions may read
// counter indices, scalar registers, SRAM (with arbitrary address
// expressions) and FIFOs; all arithmetic reuses the pattern package's op
// semantics, which the PCU functional units implement.
type Expr interface {
	Type() pattern.Type
	children() []Expr
}

// Lit is a literal value.
type Lit struct{ V pattern.Value }

// Ctr references a loop index. Level counts counters from the program root
// down to (and including) the Compute node's own chain: 0 is the outermost
// counter on the path, larger levels are deeper.
type Ctr struct{ Level int }

// RegRd reads a scalar register.
type RegRd struct{ Reg *Reg }

// SRAMRd reads Mem at the given address expressions (row-major if Mem is
// logically multi-dimensional the caller flattens; SRAM is 1-D here).
type SRAMRd struct {
	Mem  *SRAM
	Addr Expr
}

// FIFORd pops one element from a FIFO.
type FIFORd struct{ Mem *FIFOMem }

// Bin applies a binary FU op.
type Bin struct {
	Op   pattern.Op
	X, Y Expr
}

// Un applies a unary FU op.
type Un struct {
	Op pattern.Op
	X  Expr
}

// Mux selects T when Cond holds, else F.
type Mux struct{ Cond, T, F Expr }

// ToF32 converts i32 to f32.
type ToF32 struct{ X Expr }

// ToI32 converts f32 to i32 (truncating).
type ToI32 struct{ X Expr }

func (e *Lit) Type() pattern.Type    { return e.V.T }
func (e *Ctr) Type() pattern.Type    { return pattern.I32 }
func (e *RegRd) Type() pattern.Type  { return e.Reg.Elem }
func (e *SRAMRd) Type() pattern.Type { return e.Mem.Elem }
func (e *FIFORd) Type() pattern.Type { return e.Mem.Elem }
func (e *ToF32) Type() pattern.Type  { return pattern.F32 }
func (e *ToI32) Type() pattern.Type  { return pattern.I32 }
func (e *Mux) Type() pattern.Type    { return e.T.Type() }

func (e *Bin) Type() pattern.Type {
	if e.Op.IsComparison() || e.Op == pattern.And || e.Op == pattern.Or {
		return pattern.Bool
	}
	return e.X.Type()
}

func (e *Un) Type() pattern.Type {
	if e.Op == pattern.Not {
		return pattern.Bool
	}
	return e.X.Type()
}

func (e *Lit) children() []Expr    { return nil }
func (e *Ctr) children() []Expr    { return nil }
func (e *RegRd) children() []Expr  { return nil }
func (e *SRAMRd) children() []Expr { return []Expr{e.Addr} }
func (e *FIFORd) children() []Expr { return nil }
func (e *Bin) children() []Expr    { return []Expr{e.X, e.Y} }
func (e *Un) children() []Expr     { return []Expr{e.X} }
func (e *Mux) children() []Expr    { return []Expr{e.Cond, e.T, e.F} }
func (e *ToF32) children() []Expr  { return []Expr{e.X} }
func (e *ToI32) children() []Expr  { return []Expr{e.X} }

// Constructors.

// CF is a float32 literal.
func CF(v float32) Expr { return &Lit{pattern.VF(v)} }

// CI is an int32 literal.
func CI(v int32) Expr { return &Lit{pattern.VI(v)} }

// Idx references loop level l.
func Idx(l int) Expr { return &Ctr{Level: l} }

// Rd reads a register.
func Rd(r *Reg) Expr { return &RegRd{r} }

// Ld reads an SRAM at addr.
func Ld(m *SRAM, addr Expr) Expr { return &SRAMRd{m, addr} }

// Pop reads a FIFO.
func Pop(f *FIFOMem) Expr { return &FIFORd{f} }

// Binary/unary helpers.
func Add(x, y Expr) Expr    { return &Bin{pattern.Add, x, y} }
func Sub(x, y Expr) Expr    { return &Bin{pattern.Sub, x, y} }
func Mul(x, y Expr) Expr    { return &Bin{pattern.Mul, x, y} }
func Div(x, y Expr) Expr    { return &Bin{pattern.Div, x, y} }
func Mod(x, y Expr) Expr    { return &Bin{pattern.Mod, x, y} }
func Min(x, y Expr) Expr    { return &Bin{pattern.Min, x, y} }
func Max(x, y Expr) Expr    { return &Bin{pattern.Max, x, y} }
func Lt(x, y Expr) Expr     { return &Bin{pattern.Lt, x, y} }
func Le(x, y Expr) Expr     { return &Bin{pattern.Le, x, y} }
func Gt(x, y Expr) Expr     { return &Bin{pattern.Gt, x, y} }
func Ge(x, y Expr) Expr     { return &Bin{pattern.Ge, x, y} }
func Eq(x, y Expr) Expr     { return &Bin{pattern.Eq, x, y} }
func Ne(x, y Expr) Expr     { return &Bin{pattern.Ne, x, y} }
func And(x, y Expr) Expr    { return &Bin{pattern.And, x, y} }
func Or(x, y Expr) Expr     { return &Bin{pattern.Or, x, y} }
func Not(x Expr) Expr       { return &Un{pattern.Not, x} }
func Neg(x Expr) Expr       { return &Un{pattern.Neg, x} }
func Abs(x Expr) Expr       { return &Un{pattern.Abs, x} }
func Exp(x Expr) Expr       { return &Un{pattern.Exp, x} }
func Log(x Expr) Expr       { return &Un{pattern.Log, x} }
func Sqrt(x Expr) Expr      { return &Un{pattern.Sqrt, x} }
func Sel(c, t, f Expr) Expr { return &Mux{c, t, f} }
func F32(x Expr) Expr       { return &ToF32{x} }
func I32(x Expr) Expr       { return &ToI32{x} }

// Walk visits e and its descendants pre-order.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	for _, c := range e.children() {
		Walk(c, visit)
	}
}

// CountOps counts FU operations in the expression (the compiler's unit of
// pipeline-stage occupancy).
func CountOps(e Expr) int {
	n := 0
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *Bin, *Un, *Mux, *ToF32, *ToI32:
			n++
		}
	})
	return n
}

// MaxCtrLevel returns the deepest counter level referenced, or -1.
func MaxCtrLevel(e Expr) int {
	max := -1
	Walk(e, func(x Expr) {
		if c, ok := x.(*Ctr); ok && c.Level > max {
			max = c.Level
		}
	})
	return max
}
