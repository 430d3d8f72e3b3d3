package pattern

import (
	"fmt"
	"math"
)

// Value is a scalar runtime value produced by expression evaluation.
type Value struct {
	T Type
	F float32
	I int32
	B bool
}

// VF wraps a float32 value.
func VF(v float32) Value { return Value{T: F32, F: v} }

// VI wraps an int32 value.
func VI(v int32) Value { return Value{T: I32, I: v} }

// VB wraps a bool value.
func VB(v bool) Value { return Value{T: Bool, B: v} }

// AsF64 converts numeric values to float64 for comparisons in tests.
func (v Value) AsF64() float64 {
	switch v.T {
	case F32:
		return float64(v.F)
	case I32:
		return float64(v.I)
	}
	if v.B {
		return 1
	}
	return 0
}

// Eval evaluates e with the given loop index values. It is the sequential
// golden model against which the hardware simulator is checked.
func Eval(e Expr, idx []int) Value {
	switch n := e.(type) {
	case *ConstF:
		return VF(n.V)
	case *ConstI:
		return VI(n.V)
	case *ConstB:
		return VB(n.V)
	case *Idx:
		if n.Dim >= len(idx) {
			evalFail("pattern: index dim %d evaluated with %d indices", n.Dim, len(idx))
		}
		return VI(int32(idx[n.Dim]))
	case *ToF32:
		x := Eval(n.X, idx)
		return VF(float32(x.I))
	case *ToI32:
		x := Eval(n.X, idx)
		return VI(int32(x.F))
	case *Mux:
		if Eval(n.Cond, idx).B {
			return Eval(n.T, idx)
		}
		return Eval(n.F, idx)
	case *Un:
		return EvalUnary(n.Op, Eval(n.X, idx))
	case *Bin:
		return EvalOp(n.Op, Eval(n.X, idx), Eval(n.Y, idx))
	case *Read:
		ii := make([]int, len(n.Index))
		for d, ie := range n.Index {
			ii[d] = int(Eval(ie, idx).I)
		}
		if n.Coll.Elem == F32 {
			return VF(n.Coll.F32At(ii...))
		}
		return VI(n.Coll.I32At(ii...))
	}
	evalFail("pattern: cannot evaluate %T", e)
	return Value{}
}

// EvalUnary applies a unary op to a value; exported, like EvalOp, because
// the DHDL interpreter's op tables are checked against it.
func EvalUnary(op Op, x Value) Value {
	switch op {
	case Not:
		return VB(!x.B)
	case Neg:
		if x.T == F32 {
			return VF(-x.F)
		}
		return VI(-x.I)
	case Abs:
		if x.T == F32 {
			return VF(float32(math.Abs(float64(x.F))))
		}
		if x.I < 0 {
			return VI(-x.I)
		}
		return x
	case Exp:
		return VF(float32(math.Exp(float64(x.F))))
	case Log:
		return VF(float32(math.Log(float64(x.F))))
	case Sqrt:
		return VF(float32(math.Sqrt(float64(x.F))))
	case Rcp:
		return VF(1 / x.F)
	}
	evalFail("pattern: bad unary op %v", op)
	return Value{}
}

// EvalOp applies a binary op to two values; exported because the simulator's
// functional units share this semantics.
func EvalOp(op Op, x, y Value) Value {
	if x.T == Bool || op == And || op == Or {
		switch op {
		case And:
			return VB(x.B && y.B)
		case Or:
			return VB(x.B || y.B)
		case Eq:
			return VB(x.B == y.B)
		case Ne:
			return VB(x.B != y.B)
		}
		evalFail("pattern: bad bool op %v", op)
	}
	if x.T == F32 {
		a, b := x.F, y.F
		switch op {
		case Add:
			return VF(a + b)
		case Sub:
			return VF(a - b)
		case Mul:
			return VF(a * b)
		case Div:
			return VF(a / b)
		case Min:
			return VF(float32(math.Min(float64(a), float64(b))))
		case Max:
			return VF(float32(math.Max(float64(a), float64(b))))
		case Lt:
			return VB(a < b)
		case Le:
			return VB(a <= b)
		case Gt:
			return VB(a > b)
		case Ge:
			return VB(a >= b)
		case Eq:
			return VB(a == b)
		case Ne:
			return VB(a != b)
		}
		evalFail("pattern: bad f32 op %v", op)
	}
	a, b := x.I, y.I
	switch op {
	case Add:
		return VI(a + b)
	case Sub:
		return VI(a - b)
	case Mul:
		return VI(a * b)
	case Div:
		if b == 0 {
			evalFail("pattern: i32 division by zero")
		}
		return VI(a / b)
	case Mod:
		if b == 0 {
			evalFail("pattern: i32 modulo by zero")
		}
		return VI(a % b)
	case Min:
		if a < b {
			return VI(a)
		}
		return VI(b)
	case Max:
		if a > b {
			return VI(a)
		}
		return VI(b)
	case Lt:
		return VB(a < b)
	case Le:
		return VB(a <= b)
	case Gt:
		return VB(a > b)
	case Ge:
		return VB(a >= b)
	case Eq:
		return VB(a == b)
	case Ne:
		return VB(a != b)
	}
	evalFail("pattern: bad i32 op %v", op)
	return Value{}
}

// domainIter calls f with every index tuple in dom, in row-major order.
func domainIter(dom []int, f func(idx []int)) {
	idx := make([]int, len(dom))
	for {
		f(idx)
		d := len(dom) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < dom[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// Run executes a pattern sequentially and returns its result:
//
//	Map     -> []Value in row-major domain order
//	Fold    -> []Value of length 1
//	FlatMap -> []Value of the kept elements, in domain order
//
// HashReduce returns a keyed table; use RunHash for it.
//
// Evaluation failures (out-of-range reads, bad ops) surface as errors
// wrapping ErrEval rather than panics.
func Run(p Pattern) (out []Value, err error) {
	defer recoverEval(&err)
	if err := Validate(p); err != nil {
		return nil, err
	}
	switch pat := p.(type) {
	case *MapPat:
		var out []Value
		domainIter(pat.Dom, func(idx []int) {
			out = append(out, Eval(pat.F, idx))
		})
		return out, nil
	case *FoldPat:
		acc := Eval(pat.Zero, nil)
		domainIter(pat.Dom, func(idx []int) {
			acc = EvalOp(pat.Combine, acc, Eval(pat.F, idx))
		})
		return []Value{acc}, nil
	case *FlatMapPat:
		var out []Value
		domainIter(pat.Dom, func(idx []int) {
			if Eval(pat.Cond, idx).B {
				out = append(out, Eval(pat.F, idx))
			}
		})
		return out, nil
	case *HashReducePat:
		return nil, fmt.Errorf("pattern: use RunHash for HashReduce")
	}
	return nil, fmt.Errorf("pattern: unknown pattern %T", p)
}

// RunHash executes a HashReduce and returns the accumulator table.
// Evaluation failures surface as errors wrapping ErrEval, as in Run.
func RunHash(p *HashReducePat) (acc map[int32][]Value, err error) {
	defer recoverEval(&err)
	if err := Validate(p); err != nil {
		return nil, err
	}
	acc = make(map[int32][]Value)
	domainIter(p.Dom, func(idx []int) {
		k := Eval(p.K, idx).I
		if p.DenseKeys > 0 && (k < 0 || int(k) >= p.DenseKeys) {
			evalFail("pattern: dense HashReduce key %d outside [0,%d)", k, p.DenseKeys)
		}
		vals := make([]Value, len(p.V))
		for i, ve := range p.V {
			vals[i] = Eval(ve, idx)
		}
		if cur, ok := acc[k]; ok {
			for i := range cur {
				cur[i] = EvalOp(p.Combine, cur[i], vals[i])
			}
		} else {
			acc[k] = vals
		}
	})
	return acc, nil
}
