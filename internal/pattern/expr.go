// Package pattern implements the parallel-pattern programming model of
// Section 2: Map, FlatMap, Fold and HashReduce over multi-dimensional index
// domains, with bodies expressed as typed dataflow expressions. The package
// provides construction, validation, pretty-printing and a sequential
// reference evaluator used as the golden model for the hardware simulator.
package pattern

import "fmt"

// Type is the element type of an expression. Plasticine FUs perform 32-bit
// word-level arithmetic (Section 3.1), so the model is f32/i32/bool.
type Type int

const (
	F32 Type = iota
	I32
	Bool
)

func (t Type) String() string {
	switch t {
	case F32:
		return "f32"
	case I32:
		return "i32"
	case Bool:
		return "bool"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Op is a functional-unit operation.
type Op int

const (
	Add Op = iota
	Sub
	Mul
	Div
	Mod
	Min
	Max
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	And
	Or
	Not
	Neg
	Abs
	Exp
	Log
	Sqrt
	Rcp // reciprocal
)

var opNames = map[Op]string{
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Mod: "mod",
	Min: "min", Max: "max",
	Lt: "lt", Le: "le", Gt: "gt", Ge: "ge", Eq: "eq", Ne: "ne",
	And: "and", Or: "or", Not: "not", Neg: "neg", Abs: "abs",
	Exp: "exp", Log: "log", Sqrt: "sqrt", Rcp: "rcp",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsComparison reports whether the op produces a Bool from two numerics.
func (o Op) IsComparison() bool {
	switch o {
	case Lt, Le, Gt, Ge, Eq, Ne:
		return true
	}
	return false
}

// IsAssociative reports whether the op may be used as a Fold/HashReduce
// combine function (reduction trees require associativity, Section 2.2).
func (o Op) IsAssociative() bool {
	switch o {
	case Add, Mul, Min, Max, And, Or:
		return true
	}
	return false
}

// Expr is a node in the dataflow expression tree that forms a pattern body
// (the functions f, g, k, v, r of Table 1).
type Expr interface {
	Type() Type
	children() []Expr
}

// ConstF is a float32 literal.
type ConstF struct{ V float32 }

// ConstI is an int32 literal.
type ConstI struct{ V int32 }

// ConstB is a boolean literal.
type ConstB struct{ V bool }

// Idx references the pattern's loop index for dimension Dim (0-based,
// outermost first).
type Idx struct {
	Dim int
	T   Type // I32 unless cast
}

// Bin applies a binary op.
type Bin struct {
	Op   Op
	X, Y Expr
}

// Un applies a unary op.
type Un struct {
	Op Op
	X  Expr
}

// Mux selects T when Cond is true, otherwise F.
type Mux struct {
	Cond, T, F Expr
}

// ToF32 converts an i32 expression to f32.
type ToF32 struct{ X Expr }

// ToI32 converts an f32 expression to i32 (truncating).
type ToI32 struct{ X Expr }

// Read loads Coll[Index...]; the address expressions determine the memory
// access pattern the hardware must support (Section 2.2).
type Read struct {
	Coll  *Collection
	Index []Expr
}

func (e *ConstF) Type() Type { return F32 }
func (e *ConstI) Type() Type { return I32 }
func (e *ConstB) Type() Type { return Bool }
func (e *Idx) Type() Type    { return e.T }
func (e *ToF32) Type() Type  { return F32 }
func (e *ToI32) Type() Type  { return I32 }
func (e *Read) Type() Type   { return e.Coll.Elem }

func (e *Bin) Type() Type {
	if e.Op.IsComparison() {
		return Bool
	}
	if e.Op == And || e.Op == Or {
		return Bool
	}
	return e.X.Type()
}

func (e *Un) Type() Type {
	if e.Op == Not {
		return Bool
	}
	return e.X.Type()
}

func (e *Mux) Type() Type { return e.T.Type() }

func (e *ConstF) children() []Expr { return nil }
func (e *ConstI) children() []Expr { return nil }
func (e *ConstB) children() []Expr { return nil }
func (e *Idx) children() []Expr    { return nil }
func (e *Bin) children() []Expr    { return []Expr{e.X, e.Y} }
func (e *Un) children() []Expr     { return []Expr{e.X} }
func (e *Mux) children() []Expr    { return []Expr{e.Cond, e.T, e.F} }
func (e *ToF32) children() []Expr  { return []Expr{e.X} }
func (e *ToI32) children() []Expr  { return []Expr{e.X} }
func (e *Read) children() []Expr   { return e.Index }

// Convenience constructors.

// F returns a float32 constant.
func F(v float32) Expr { return &ConstF{v} }

// I returns an int32 constant.
func I(v int32) Expr { return &ConstI{v} }

// B returns a boolean constant.
func B(v bool) Expr { return &ConstB{v} }

// Index returns the i32 loop index of dimension dim.
func Index(dim int) Expr { return &Idx{Dim: dim, T: I32} }

// Add2 .. helpers build binary nodes.
func Add2(x, y Expr) Expr      { return &Bin{Add, x, y} }
func Sub2(x, y Expr) Expr      { return &Bin{Sub, x, y} }
func Mul2(x, y Expr) Expr      { return &Bin{Mul, x, y} }
func Div2(x, y Expr) Expr      { return &Bin{Div, x, y} }
func Min2(x, y Expr) Expr      { return &Bin{Min, x, y} }
func Max2(x, y Expr) Expr      { return &Bin{Max, x, y} }
func Lt2(x, y Expr) Expr       { return &Bin{Lt, x, y} }
func Ge2(x, y Expr) Expr       { return &Bin{Ge, x, y} }
func Select(c, t, f Expr) Expr { return &Mux{c, t, f} }

// At reads coll at the given index expressions.
func At(coll *Collection, idx ...Expr) Expr { return &Read{Coll: coll, Index: idx} }

// Walk visits e and all descendants in pre-order.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	for _, c := range e.children() {
		Walk(c, visit)
	}
}

// CountOps returns the number of FU operations (Bin/Un/Mux/convert nodes)
// in the expression; used to size pipelines.
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
