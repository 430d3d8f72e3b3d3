package dhdl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"plasticine/internal/pattern"
)

// TestCompiledMatchesOracleOnLanePrograms generates programs whose compute
// bodies the lane path runs, and requires the compiled interpreter to
// reproduce the oracle bit for bit, errors included. Floors on what the
// lane path did keep the generator honest: bodies must be eligible, loops
// must cross block boundaries, faulting blocks must rerun, tiles must span
// rows and fault, and multiply-accumulates must fuse.
func TestCompiledMatchesOracleOnLanePrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var total LaneStats
	failed := 0
	const programs = 400
	for i := 0; i < programs; i++ {
		p := laneProgram(r, fmt.Sprintf("lanes%d", i))
		st, err := CheckLanesAgainstOracle(t, p)
		if err != nil {
			failed++
		}
		if t.Failed() {
			t.Fatalf("program %d:\n%s", i, p.Tree())
		}
		total.add(st)
	}
	t.Logf("%d programs, %d failed at run time: %+v", programs, failed, total)
	if failed > programs/4 {
		t.Errorf("%d of %d programs failed at run time; the generator is too error-prone to cover much", failed, programs)
	}
	floor := LaneStats{Eligible: 500, Blocks: 1800, MultiBlock: 500, Replayed: 300,
		Tiles: 300, FaultedTiles: 100, Fused: 50}
	if total.Eligible < floor.Eligible || total.Blocks < floor.Blocks ||
		total.MultiBlock < floor.MultiBlock || total.Replayed < floor.Replayed ||
		total.Tiles < floor.Tiles || total.FaultedTiles < floor.FaultedTiles || total.Fused < floor.Fused {
		t.Errorf("lane path coverage %+v, want at least %+v", total, floor)
	}
}

// FuzzTraceMatchesOracle runs the lane-program generator from a fuzzed
// seed and checks the compiled interpreter against the oracle bit for bit.
func FuzzTraceMatchesOracle(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := laneProgram(rand.New(rand.NewSource(seed)), "fuzz")
		if _, err := CheckAgainstOracle(t, p); t.Failed() {
			t.Fatalf("%v\n%s", err, p.Tree())
		}
	})
}

// laneGen builds compute bodies the lane path runs: sources are only read
// and destinations only written, so iterations are independent.
type laneGen struct {
	r      *rand.Rand
	lane   int // the innermost counter's level
	row    int // the next-outer counter's level: the tile's rows
	first  int // the row counter's first value
	mid    int // a counter value near the middle of the innermost loop
	srcF   *SRAM
	srcI   *SRAM
	srcN   *SRAM // multiply-accumulate data: NaNs of two payloads, infinities, signed zeros
	idx    *SRAM // small non-negative indices
	dstF   *SRAM
	dstI   *SRAM
	rf, ri *Reg // read-only registers
	wf, wi *Reg // WriteReg targets
	af, ai *Reg // ReduceReg targets, which bodies may read
	ab     *Reg
	shared []Expr // expressions earlier in the body, for pointer sharing
}

const laneMem = 1024

func laneProgram(r *rand.Rand, name string) *Program {
	b := NewBuilder(name, Sequential)
	dsf, dsi, dix := b.DRAMF32("dsf", laneMem), b.DRAMI32("dsi", laneMem), b.DRAMI32("dix", laneMem)
	dsn, ddf, ddi := b.DRAMF32("dsn", laneMem), b.DRAMF32("ddf", laneMem), b.DRAMI32("ddi", laneMem)
	g := &laneGen{r: r,
		srcF: b.SRAM("srcF", pattern.F32, laneMem), srcI: b.SRAM("srcI", pattern.I32, laneMem),
		srcN: b.SRAM("srcN", pattern.F32, laneMem), idx: b.SRAM("idx", pattern.I32, laneMem),
		dstF: b.SRAM("dstF", pattern.F32, laneMem), dstI: b.SRAM("dstI", pattern.I32, laneMem),
		rf: b.Reg("rf", pattern.VF(0.75)), ri: b.Reg("ri", pattern.VI(5)),
		wf: b.Reg("wf", pattern.VF(0)), wi: b.Reg("wi", pattern.VI(0)),
		af: b.Reg("af", pattern.VF(0.5)), ai: b.Reg("ai", pattern.VI(1)), ab: b.Reg("ab", pattern.VB(false)),
	}
	outer := r.Intn(2)
	b.Seq("outer", []Counter{CStep(outer, 2, 1)}, func([]Expr) {
		b.Load("ldf", dsf, CI(0), g.srcF, laneMem)
		b.Load("ldi", dsi, CI(0), g.srcI, laneMem)
		b.Load("ldx", dix, CI(0), g.idx, laneMem)
		b.Load("ldn", dsn, CI(0), g.srcN, laneMem)
		for c := 0; c < 1+r.Intn(3); c++ {
			// A next-outer counter gives the body rows to tile; without one
			// the rows are the outer controller's.
			var chain []Counter
			g.first = outer
			if r.Intn(2) == 0 {
				g.first = r.Intn(2)
				chain = append(chain, CStep(g.first, g.first+[]int{2, 3, 5, 9}[r.Intn(4)], 1))
			}
			// The innermost counter: trip counts on both sides of a block
			// boundary, from an offset start with a stride.
			step, start := 1+r.Intn(2), r.Intn(4)
			trips := []int{1, 3, 63, 64, 65, 100, 128, 129, 150}[r.Intn(9)]
			chain = append(chain, CStep(start, start+step*trips, step))
			g.lane = len(chain) // below the outer controller's level 0
			g.row = g.lane - 1
			g.mid = start + step*(trips/2)
			b.Compute(fmt.Sprintf("c%d", c), chain, func([]Expr) []*Assign {
				g.shared = nil
				body := make([]*Assign, 1+r.Intn(3))
				for i := range body {
					body[i] = g.assign()
				}
				return body
			})
		}
		b.Store("stf", ddf, CI(0), g.dstF, laneMem)
		b.Store("sti", ddi, CI(0), g.dstI, laneMem)
	})
	p := b.MustBuild()
	fs, is, xs, ns := make([]float32, laneMem), make([]int32, laneMem), make([]int32, laneMem), make([]float32, laneMem)
	for i := range fs {
		fs[i] = g.f32Lit()
		is[i] = g.i32Lit()
		xs[i] = int32(r.Intn(16))
		ns[i] = g.macLit()
	}
	for _, bind := range []error{
		dsf.Bind(pattern.FromF32("dsf", fs)), dsi.Bind(pattern.FromI32("dsi", is)),
		dix.Bind(pattern.FromI32("dix", xs)), dsn.Bind(pattern.FromF32("dsn", ns)),
		ddf.Bind(pattern.NewF32("ddf", laneMem)), ddi.Bind(pattern.NewI32("ddi", laneMem)),
	} {
		if bind != nil {
			panic(bind)
		}
	}
	return p
}

func (g *laneGen) f32Lit() float32 {
	if g.r.Intn(10) == 0 {
		return []float32{0, float32(math.Copysign(0, -1)), 3e38, float32(math.NaN()), float32(math.Inf(-1))}[g.r.Intn(5)]
	}
	return float32(g.r.Intn(400)-200) / 16
}

// macLit is multiply-accumulate data: one word in four a NaN (of either
// sign, so two payloads), an infinity or a signed zero, the rest values
// whose sums round, so that summing in another order shows.
func (g *laneGen) macLit() float32 {
	switch g.r.Intn(24) {
	case 0:
		return float32(math.NaN())
	case 1:
		return -float32(math.NaN())
	case 2:
		return float32(math.Inf(1))
	case 3:
		return float32(math.Inf(-1))
	case 4:
		return 0
	case 5:
		return float32(math.Copysign(0, -1))
	}
	return float32(math.Copysign(float64(g.r.Float32()), float64(g.r.Intn(2)*2-1))) * 3
}

func (g *laneGen) i32Lit() int32 {
	if g.r.Intn(10) == 0 {
		return []int32{0, -1, math.MaxInt32, math.MinInt32}[g.r.Intn(4)]
	}
	return int32(g.r.Intn(61) - 30)
}

// invariant is a lane-invariant i32 in [0, 64): a constant, an outer
// counter, or data read at one.
func (g *laneGen) invariant() Expr {
	switch g.r.Intn(3) {
	case 0:
		return CI(int32(g.r.Intn(16)))
	case 1:
		return Mul(Idx(g.r.Intn(g.lane)), CI(int32(1+g.r.Intn(8))))
	}
	return Mul(Ld(g.idx, Idx(g.r.Intn(g.lane))), CI(4))
}

// addr is an SRAM address: mostly in range, lane-affine with a positive or
// negative stride, lane-invariant, or a per-lane gather; rarely one that
// leaves the memory at a middle lane.
func (g *laneGen) addr() Expr {
	lane := Idx(g.lane)
	switch g.r.Intn(10) {
	case 0, 1:
		return g.invariant()
	case 2:
		return Sub(CI(laneMem-100), Add(lane, g.invariant()))
	case 3:
		return Ld(g.idx, Add(lane, g.invariant()))
	case 4:
		if g.r.Intn(3) == 0 {
			return Add(lane, CI(int32(laneMem-g.mid)))
		}
	}
	return Add(Mul(lane, CI(int32(1+g.r.Intn(3)))), g.invariant())
}

// guardedAddr leaves the memory past the middle lane; the guard it returns
// holds only where it stays inside.
func (g *laneGen) guardedAddr() (guard, addr Expr) {
	lane := Idx(g.lane)
	return Lt(lane, CI(int32(g.mid))), Add(lane, CI(int32(laneMem-g.mid)))
}

// perRow is an expression that reads the row counter but not the lane:
// i32 row-affine, a load gathered across rows, or one that takes a scalar
// call per row.
func (g *laneGen) perRow(t pattern.Type) Expr {
	row := Idx(g.row)
	at := Add(Mul(row, CI(int32(1+g.r.Intn(40)))), CI(int32(g.r.Intn(16))))
	switch {
	case t == pattern.I32 && g.r.Intn(3) == 0:
		return Add(row, CI(int32(g.r.Intn(8))))
	case t == pattern.I32 && g.r.Intn(2) == 0:
		return Mul(Ld(g.idx, row), CI(4))
	case t == pattern.I32:
		return Ld(g.srcI, at)
	case g.r.Intn(2) == 0:
		return Ld(g.srcN, at)
	}
	return Neg(Ld(g.srcN, Add(row, CI(int32(g.r.Intn(16))))))
}

// macOperand is one side of a fused multiply-accumulate's product: per
// tile, per row or per lane.
func (g *laneGen) macOperand() Expr {
	lane := Idx(g.lane)
	switch g.r.Intn(8) {
	case 0:
		return CF(g.macLit())
	case 1:
		return Ld(g.srcN, g.invariant())
	case 2, 3:
		return g.perRow(pattern.F32)
	case 4:
		return g.f32(1)
	case 5:
		return Ld(g.srcN, Add(Add(lane, Idx(g.row)), CI(int32(g.r.Intn(64)))))
	}
	return Ld(g.srcN, Add(Mul(lane, CI(int32(1+g.r.Intn(3)))), g.invariant()))
}

// mac accumulates a product the body uses nowhere else: into a register,
// into one word per row or per tile, along a row at unit stride, at other
// strides with rows overlapping, or at any address g.addr makes.
func (g *laneGen) mac() *Assign {
	val := Mul(g.macOperand(), g.macOperand())
	lane, row := Idx(g.lane), Idx(g.row)
	switch g.r.Intn(5) {
	case 0:
		return Accum(g.af, pattern.Add, val)
	case 1:
		return AccumAt(g.dstF, pattern.Add, g.invariant(), val)
	case 2:
		return AccumAt(g.dstF, pattern.Add, Add(lane, g.invariant()), val)
	case 3:
		return AccumAt(g.dstF, pattern.Add, Add(Mul(lane, CI(int32(2+g.r.Intn(2)))), Mul(row, CI(int32(g.r.Intn(3))))), val)
	}
	return AccumAt(g.dstF, pattern.Add, g.addr(), val)
}

// rowGuarded stores a value whose per-row part reads past the memory in
// every row after the first, under a condition only the first row meets:
// the scalar loop never evaluates it there, a tile does and faults after
// moving the affine registers to a later row, which the store's own
// row-affine address and operand then depend on.
func (g *laneGen) rowGuarded() *Assign {
	lane, row := Idx(g.lane), Idx(g.row)
	bad := Neg(Ld(g.srcF, Add(Mul(Sub(row, CI(int32(g.first))), CI(laneMem)), CI(int32(g.r.Intn(16))))))
	a := StoreAt(g.dstF, Add(Mul(row, CI(16)), lane), Add(bad, Ld(g.srcF, Add(Mul(row, CI(7)), lane))))
	a.Cond = Lt(row, CI(int32(g.first+1)))
	return a
}

// reuse returns an earlier expression of type t, if the dice say so.
func (g *laneGen) reuse(t pattern.Type) Expr {
	if g.r.Intn(3) != 0 {
		return nil
	}
	for _, i := range g.r.Perm(len(g.shared)) {
		if e := g.shared[i]; e.Type() == t {
			return e
		}
	}
	return nil
}

func (g *laneGen) keep(e Expr) Expr {
	g.shared = append(g.shared, e)
	return e
}

func (g *laneGen) f32(depth int) Expr {
	if e := g.reuse(pattern.F32); e != nil {
		return e
	}
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(6) {
		case 0:
			return CF(g.f32Lit())
		case 1:
			return Rd([]*Reg{g.rf, g.af}[g.r.Intn(2)])
		case 2:
			return F32(g.i32(depth - 1))
		}
		return g.keep(Ld(g.srcF, g.addr()))
	}
	switch g.r.Intn(6) {
	case 0:
		if g.r.Intn(2) == 0 {
			guard, a := g.guardedAddr()
			return g.keep(Sel(guard, Ld(g.srcF, a), g.f32(depth-1)))
		}
		return g.keep(Sel(g.boolean(depth-1), g.f32(depth-1), g.f32(depth-1)))
	case 1:
		ops := []func(Expr) Expr{Neg, Abs, Exp, Log, Sqrt}
		return g.keep(ops[g.r.Intn(len(ops))](g.f32(depth - 1)))
	}
	ops := []func(x, y Expr) Expr{Add, Sub, Mul, Div, Min, Max}
	return g.keep(ops[g.r.Intn(len(ops))](g.f32(depth-1), g.f32(depth-1)))
}

func (g *laneGen) i32(depth int) Expr {
	if e := g.reuse(pattern.I32); e != nil {
		return e
	}
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(6) {
		case 0:
			return CI(g.i32Lit())
		case 1:
			return Idx(g.r.Intn(g.lane + 1))
		case 2:
			return Rd([]*Reg{g.ri, g.ai}[g.r.Intn(2)])
		case 3:
			return I32(g.f32(depth - 1))
		}
		return g.keep(Ld(g.srcI, g.addr()))
	}
	switch g.r.Intn(6) {
	case 0:
		// Division guarded against zero; the lane path divides anyway.
		d := g.i32(depth - 1)
		op := []func(x, y Expr) Expr{Div, Mod}[g.r.Intn(2)]
		return g.keep(Sel(Ne(d, CI(0)), op(g.i32(depth-1), d), CI(-1)))
	case 1:
		return g.keep([]func(Expr) Expr{Neg, Abs}[g.r.Intn(2)](g.i32(depth - 1)))
	case 2:
		return g.keep(Sel(g.boolean(depth-1), g.i32(depth-1), g.i32(depth-1)))
	}
	ops := []func(x, y Expr) Expr{Add, Sub, Mul, Min, Max}
	if g.r.Intn(8) == 0 {
		ops = []func(x, y Expr) Expr{Div, Mod}
	}
	return g.keep(ops[g.r.Intn(len(ops))](g.i32(depth-1), g.i32(depth-1)))
}

func (g *laneGen) boolean(depth int) Expr {
	if e := g.reuse(pattern.Bool); e != nil {
		return e
	}
	if depth <= 0 || g.r.Intn(4) == 0 {
		if g.r.Intn(2) == 0 {
			return Rd(g.ab)
		}
		return Lt(Idx(g.lane), CI(int32(g.mid)))
	}
	cmps := []func(x, y Expr) Expr{Lt, Le, Gt, Ge, Eq, Ne}
	switch g.r.Intn(5) {
	case 0:
		return g.keep(cmps[g.r.Intn(len(cmps))](g.f32(depth-1), g.f32(depth-1)))
	case 1:
		return g.keep(cmps[g.r.Intn(len(cmps))](g.i32(depth-1), g.i32(depth-1)))
	case 2:
		return g.keep(Not(g.boolean(depth - 1)))
	case 3:
		// Against a per-row word, on either side.
		t := []pattern.Type{pattern.I32, pattern.F32}[g.r.Intn(2)]
		x, y := g.perRow(t), g.f32(depth-1)
		if t == pattern.I32 {
			y = g.i32(depth - 1)
		}
		if g.r.Intn(2) == 0 {
			x, y = y, x
		}
		return g.keep(cmps[g.r.Intn(len(cmps))](x, y))
	}
	ops := []func(x, y Expr) Expr{And, Or, Eq, Ne}
	return g.keep(ops[g.r.Intn(len(ops))](g.boolean(depth-1), g.boolean(depth-1)))
}

func (g *laneGen) assign() *Assign {
	const depth = 3
	combine := []pattern.Op{pattern.Add, pattern.Add, pattern.Mul, pattern.Min, pattern.Max}[g.r.Intn(5)]
	var a *Assign
	switch g.r.Intn(15) {
	case 12, 13:
		a = g.mac()
	case 14:
		a = g.rowGuarded()
	case 0, 1:
		a = StoreAt(g.dstF, g.addr(), g.f32(depth))
	case 2:
		a = StoreAt(g.dstI, g.addr(), g.i32(depth))
	case 3:
		// Stride 0: every lane accumulates into one word, in lane order.
		a = AccumAt(g.dstF, combine, g.invariant(), g.f32(depth))
	case 4:
		// A histogram: the bin is data dependent.
		a = AccumAt([]*SRAM{g.dstF, g.dstI}[g.r.Intn(2)], pattern.Add, Ld(g.idx, Idx(g.lane)), nil)
		if a.SRAM.Elem == pattern.F32 {
			a.Val = g.f32(depth)
		} else {
			a.Val = g.i32(depth)
		}
	case 5:
		a = AccumAt(g.dstF, combine, g.addr(), g.f32(depth))
	case 6:
		a = AccumAt(g.dstI, combine, g.addr(), g.i32(depth))
	case 7:
		guard, addr := g.guardedAddr()
		a = StoreAt(g.dstF, addr, g.f32(depth))
		a.Cond = guard
	case 8:
		a = SetReg([]*Reg{g.wf, g.wi}[g.r.Intn(2)], nil)
		if a.Reg.Elem == pattern.F32 {
			a.Val = g.f32(depth)
		} else {
			a.Val = g.i32(depth)
		}
	case 9:
		a = Accum(g.af, combine, g.f32(depth))
	case 10:
		a = Accum(g.ai, combine, g.i32(depth))
	default:
		a = Accum(g.ab, []pattern.Op{pattern.And, pattern.Or}[g.r.Intn(2)], g.boolean(depth))
	}
	if a.Cond == nil && g.r.Intn(4) == 0 {
		a.Cond = g.boolean(2)
	}
	// Now and then a body reads what it writes: the loop-carried case the
	// lane path must leave to the scalar loop.
	if g.r.Intn(16) == 0 && a.Kind == WriteSRAM {
		a.Val = Add(Ld(a.SRAM, Idx(g.lane)), a.Val)
	}
	return a
}
