package dhdl

import "plasticine/internal/pattern"

// Affine is a linear form over counter levels: Const + sum(Coeff[l] * i_l).
// Address expressions of this form need no evaluation per iteration: the
// interpreter steps them by a constant stride as the counters advance, and
// the hardware's address generators do the same.
type Affine struct {
	Coeff map[int]int64
	Const int64
}

// AnalyzeAffine decomposes an address expression into an affine form over
// counter levels. The second result is false for non-affine addresses
// (data-dependent indices, products of counters, and so on).
func AnalyzeAffine(e Expr) (Affine, bool) {
	a, ok := affine(e)
	if !ok {
		return Affine{}, false
	}
	if a.Coeff == nil {
		a.Coeff = map[int]int64{}
	}
	return a, true
}

func affine(e Expr) (Affine, bool) {
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
		x, okX := affine(n.X)
		y, okY := affine(n.Y)
		switch n.Op {
		case pattern.Add:
			if okX && okY {
				return addAffine(x, y, 1), true
			}
		case pattern.Sub:
			if okX && okY {
				return addAffine(x, y, -1), true
			}
		case pattern.Mul:
			// One side must be a pure constant.
			if okX && okY {
				if len(x.Coeff) == 0 {
					return scaleAffine(y, x.Const), true
				}
				if len(y.Coeff) == 0 {
					return scaleAffine(x, y.Const), true
				}
			}
		}
		return Affine{}, false
	}
	return Affine{}, false
}

func addAffine(x, y Affine, sign int64) Affine {
	out := Affine{Coeff: map[int]int64{}, Const: x.Const + sign*y.Const}
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
	out := Affine{Coeff: map[int]int64{}, Const: x.Const * k}
	for l, c := range x.Coeff {
		if c*k != 0 {
			out.Coeff[l] = c * k
		}
	}
	return out
}
