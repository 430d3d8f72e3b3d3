package dhdl

import "testing"

func TestAnalyzeAffine(t *testing.T) {
	cases := []struct {
		e     Expr
		coeff map[int]int64
		k     int64
		ok    bool
	}{
		{CI(5), map[int]int64{}, 5, true},
		{Idx(1), map[int]int64{1: 1}, 0, true},
		{Add(Mul(Idx(0), CI(32)), Idx(1)), map[int]int64{0: 32, 1: 1}, 0, true},
		{Sub(Mul(CI(4), Idx(2)), CI(3)), map[int]int64{2: 4}, -3, true},
		{Sub(Idx(0), Idx(0)), map[int]int64{}, 0, true},       // cancels
		{Mul(Idx(0), Idx(1)), nil, 0, false},                  // quadratic
		{Ld(&SRAM{Name: "s", Size: 4}, CI(0)), nil, 0, false}, // data-dependent
		{CF(1.5), nil, 0, false},                              // float literal is not an address
	}
	for i, c := range cases {
		a, ok := AnalyzeAffine(c.e)
		if ok != c.ok {
			t.Errorf("case %d: ok = %v, want %v", i, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if a.Const != c.k {
			t.Errorf("case %d: const = %d, want %d", i, a.Const, c.k)
		}
		if len(a.Coeff) != len(c.coeff) {
			t.Errorf("case %d: coeff = %v, want %v", i, a.Coeff, c.coeff)
			continue
		}
		for l, v := range c.coeff {
			if a.Coeff[l] != v {
				t.Errorf("case %d: coeff[%d] = %d, want %d", i, l, a.Coeff[l], v)
			}
		}
	}
}

func TestLaneStride(t *testing.T) {
	s := &SRAM{Name: "tbl", Size: 64}
	const lane = 2
	cases := []struct {
		e      Expr
		stride int64
		ok     bool
	}{
		{Idx(lane), 1, true},
		{Add(Mul(Idx(0), CI(8)), Idx(lane)), 1, true},
		{Mul(Idx(lane), CI(4)), 4, true},
		{Idx(0), 0, true}, // lane-invariant
		// Data-dependent but lane-invariant base: still affine in the lane.
		{Add(Mul(Ld(s, Idx(0)), CI(8)), Idx(lane)), 1, true},
		// Per-lane gather: not affine.
		{Ld(s, Idx(lane)), 0, false},
		// Lane times a data-dependent value: unknown stride.
		{Mul(Idx(lane), Ld(s, CI(0))), 0, false},
		// Lane times another counter: a stride per outer iteration, not one
		// stride.
		{Mul(Idx(0), Idx(lane)), 0, false},
		// Literal arithmetic is a known constant.
		{Mul(Sub(CI(0), CI(3)), Idx(lane)), -3, true},
		// The lane cancels: every lane sees the same value.
		{Sub(Add(Idx(lane), Ld(s, Idx(0))), Idx(lane)), 0, true},
		// A lane-invariant f32 subtree is a constant too.
		{Ld(s, Idx(1)), 0, true},
		{nil, 0, true},
	}
	for i, c := range cases {
		stride, ok := LaneStride(c.e, lane)
		if ok != c.ok || (ok && stride != c.stride) {
			t.Errorf("case %d: (%d, %v), want (%d, %v)", i, stride, ok, c.stride, c.ok)
		}
	}
}
