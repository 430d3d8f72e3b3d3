package compiler

import (
	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LaneStride computes how an address varies across SIMD lanes: the
// coefficient of the lane-level counter, treating lane-invariant subtrees
// (even data-dependent ones, like a per-point cluster id) as constants.
// ok is false when the address depends on the lane in a non-affine way —
// a per-lane gather/scatter.
func LaneStride(e dhdl.Expr, laneLevel int) (stride int64, ok bool) {
	if e == nil {
		return 0, true
	}
	if !usesLevel(e, laneLevel) {
		return 0, true
	}
	switch n := e.(type) {
	case *dhdl.Ctr:
		if n.Level == laneLevel {
			return 1, true
		}
		return 0, true
	case *dhdl.Bin:
		switch n.Op {
		case pattern.Add, pattern.Sub:
			x, okX := LaneStride(n.X, laneLevel)
			y, okY := LaneStride(n.Y, laneLevel)
			if !okX || !okY {
				return 0, false
			}
			if n.Op == pattern.Sub {
				y = -y
			}
			return x + y, true
		case pattern.Mul:
			// stride scales only by literal constants.
			if k, isConst := litInt(n.X); isConst {
				s, sok := LaneStride(n.Y, laneLevel)
				return s * k, sok
			}
			if k, isConst := litInt(n.Y); isConst {
				s, sok := LaneStride(n.X, laneLevel)
				return s * k, sok
			}
		}
	}
	return 0, false
}

func litInt(e dhdl.Expr) (int64, bool) {
	if l, isLit := e.(*dhdl.Lit); isLit && l.V.T == pattern.I32 {
		return int64(l.V.I), true
	}
	return 0, false
}

func usesLevel(e dhdl.Expr, level int) bool {
	found := false
	dhdl.Walk(e, func(x dhdl.Expr) {
		if c, isCtr := x.(*dhdl.Ctr); isCtr && c.Level == level {
			found = true
		}
	})
	return found
}

// StrideConflictFactor is the cycles a banked scratchpad needs to serve one
// vector whose addresses step by stride across lanes: gcd(stride, banks)
// lanes collide per bank. Stride 0 is a broadcast (one read feeds every
// lane); negative strides behave like their magnitude.
func StrideConflictFactor(stride int64, banks int) int {
	if stride == 0 {
		return 1
	}
	return int(gcd(stride, int64(banks)))
}

// randomWriteFactor models sequentialised random vector writes: the write
// sequencer coalesces same-burst lanes, sustaining ~4 distinct random
// addresses per cycle (Section 2.2: "random write commands must be
// sequentialized and coalesced").
const randomWriteFactor = 4

// BankingFor picks the scratchpad banking mode an access pattern needs:
// strided for lane-affine accesses, duplication for per-lane random reads
// (Section 3.2).
func BankingFor(addr dhdl.Expr, laneLevel int) dhdl.BankingMode {
	if _, ok := LaneStride(addr, laneLevel); ok {
		return dhdl.Strided
	}
	return dhdl.Duplication
}
