package dhdl

import "plasticine/internal/pattern"

// Affine is a linear form over counter levels: Const + sum(Coeff[l] * i_l).
// Address expressions of this form need no evaluation per iteration: the
// interpreter steps them by a constant stride as the counters advance, and
// the hardware's address generators do the same.
type Affine struct {
	Coeff map[int]int64
	Const int64

	// opaque marks a lane form (see LaneStride) whose Const stands for a
	// lane-invariant value that is only known at run time.
	opaque bool
}

// AnalyzeAffine decomposes an address expression into an affine form over
// counter levels. The second result is false for non-affine addresses
// (data-dependent indices, products of counters, and so on).
func AnalyzeAffine(e Expr) (Affine, bool) {
	a, ok := affine(e, noLane)
	if !ok {
		return Affine{}, false
	}
	if a.Coeff == nil {
		a.Coeff = map[int]int64{}
	}
	return a, true
}

// LaneStride says how an i32 expression varies across the lanes of the
// counter at level lane: the SIMD lanes a PCU runs its innermost counter
// on, which the interpreter mirrors a tile of lanes at a time. Subtrees
// that do not read that counter count as constants, even data-dependent
// ones like a per-point class id times a row length. The answer is one of
//
//   - lane-invariant: ok with stride 0, one value for every lane;
//   - lane-affine: ok, e = base + stride·i where i is the counter and base
//     is lane-invariant (wrapping at 32 bits, as the i32 ops do);
//   - varying: ok is false, e depends on the lane in no such way (a
//     per-lane gather, the lane times a data-dependent value).
//
// The compiler banks scratchpads and sets initiation intervals by it; the
// interpreter asks it about the innermost counter and the one above, and
// evaluates invariant subtrees once per tile or row and affine ones as a
// base and strides.
func LaneStride(e Expr, lane int) (stride int64, ok bool) {
	if e == nil || !readsLevel(e, lane) {
		return 0, true
	}
	a, ok := affine(e, lane)
	if !ok {
		return 0, false
	}
	return a.Coeff[lane], true
}

// noLane asks affine for plain affine forms.
const noLane = -1

// affine is the one walker behind AnalyzeAffine and LaneStride. It
// decomposes e into a linear form over counter levels. Given a lane
// level, a subtree that does not read that counter and is not itself
// linear is an opaque constant instead of a failure.
func affine(e Expr, lane int) (Affine, bool) {
	if lane != noLane && !readsLevel(e, lane) {
		if a, ok := affine(e, noLane); ok {
			return a, true
		}
		return Affine{opaque: true}, true
	}
	switch n := e.(type) {
	case *Lit:
		// Only integer literals participate in addressing.
		if n.V.T != pattern.I32 {
			return Affine{}, false
		}
		return Affine{Const: int64(n.V.I)}, true
	case *Ctr:
		return Affine{Coeff: map[int]int64{n.Level: 1}}, true
	case *Bin:
		x, okX := affine(n.X, lane)
		y, okY := affine(n.Y, lane)
		if !okX || !okY {
			return Affine{}, false
		}
		switch n.Op {
		case pattern.Add:
			return addAffine(x, y, 1), true
		case pattern.Sub:
			return addAffine(x, y, -1), true
		case pattern.Mul:
			// One side must be a known constant.
			if len(x.Coeff) == 0 && !x.opaque {
				return scaleAffine(y, x.Const), true
			}
			if len(y.Coeff) == 0 && !y.opaque {
				return scaleAffine(x, y.Const), true
			}
		}
	}
	return Affine{}, false
}

func addAffine(x, y Affine, sign int64) Affine {
	out := Affine{Coeff: map[int]int64{}, Const: x.Const + sign*y.Const, opaque: x.opaque || y.opaque}
	for l, c := range x.Coeff {
		out.Coeff[l] += c
	}
	for l, c := range y.Coeff {
		out.Coeff[l] += sign * c
	}
	for l, c := range out.Coeff {
		if c == 0 {
			delete(out.Coeff, l)
		}
	}
	return out
}

func scaleAffine(x Affine, k int64) Affine {
	out := Affine{Coeff: map[int]int64{}, Const: x.Const * k, opaque: x.opaque && k != 0}
	for l, c := range x.Coeff {
		if c*k != 0 {
			out.Coeff[l] = c * k
		}
	}
	return out
}

// readsLevel reports whether e reads the counter at the given level.
func readsLevel(e Expr, level int) bool {
	if c, ok := e.(*Ctr); ok {
		return c.Level == level
	}
	for _, ch := range e.children() {
		if readsLevel(ch, level) {
			return true
		}
	}
	return false
}
