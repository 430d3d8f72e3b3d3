package dhdl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"plasticine/internal/pattern"
)

// sampleValues covers the edge cases of each word type: signed zeros,
// infinities, NaN and subnormals for f32; zero, ±1 and the extremes for i32.
func sampleValues(t pattern.Type) []pattern.Value {
	switch t {
	case pattern.F32:
		var out []pattern.Value
		for _, f := range []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -2.75, 3e38, -3e38, 1e-45,
			float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
			out = append(out, pattern.VF(f))
		}
		return out
	case pattern.I32:
		var out []pattern.Value
		for _, i := range []int32{0, 1, -1, 7, -7, 1 << 20, math.MaxInt32, math.MinInt32} {
			out = append(out, pattern.VI(i))
		}
		return out
	}
	return []pattern.Value{pattern.VB(false), pattern.VB(true)}
}

func TestOpTablesMatchPattern(t *testing.T) {
	types := []pattern.Type{pattern.F32, pattern.I32, pattern.Bool}
	for op := pattern.Add; op <= pattern.Rcp; op++ {
		for _, ty := range types {
			if f, rt := unary(op, ty); f != nil {
				for _, x := range sampleValues(ty) {
					want := pattern.EvalUnary(op, x)
					got := fromWord(rt, f(toWord(x)))
					sameValues(t, fmt.Sprintf("%v %v", op, x), []pattern.Value{want}, []pattern.Value{got})
				}
			}
			f, rt := binary(op, ty)
			if f == nil {
				continue
			}
			for _, x := range sampleValues(ty) {
				for _, y := range sampleValues(ty) {
					want, werr := pattern.EvalOpChecked(op, x, y)
					var got pattern.Value
					gerr := func() (err error) {
						defer func() {
							if r := recover(); r != nil {
								err = r.(*pattern.EvalError)
							}
						}()
						got = fromWord(rt, f(toWord(x), toWord(y)))
						return nil
					}()
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%v(%v, %v): error %v, want %v", op, x, y, gerr, werr)
					}
					if werr == nil {
						sameValues(t, fmt.Sprintf("%v(%v, %v)", op, x, y), []pattern.Value{want}, []pattern.Value{got})
					}
				}
			}
		}
	}
	// Every op the pattern package defines on a type has a table entry.
	for _, c := range []struct {
		t   pattern.Type
		ops []pattern.Op
	}{
		{pattern.F32, []pattern.Op{pattern.Add, pattern.Sub, pattern.Mul, pattern.Div, pattern.Min, pattern.Max,
			pattern.Lt, pattern.Le, pattern.Gt, pattern.Ge, pattern.Eq, pattern.Ne}},
		{pattern.I32, []pattern.Op{pattern.Add, pattern.Sub, pattern.Mul, pattern.Div, pattern.Mod, pattern.Min,
			pattern.Max, pattern.Lt, pattern.Le, pattern.Gt, pattern.Ge, pattern.Eq, pattern.Ne}},
		{pattern.Bool, []pattern.Op{pattern.And, pattern.Or, pattern.Eq, pattern.Ne}},
	} {
		for _, op := range c.ops {
			if f, _ := binary(op, c.t); f == nil {
				t.Errorf("no %v op on %v", op, c.t)
			}
		}
	}
}

// TestTraceRejectsIllTyped checks that the interpreter refuses programs
// whose expressions mix types, before running anything: the compute below
// never iterates, so the oracle would accept every one of them.
func TestTraceRejectsIllTyped(t *testing.T) {
	cases := map[string]func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign{
		"f32 into i32 SRAM": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(si, CI(0), CF(1))}
		},
		"mixed add": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(sf, CI(0), Add(CF(1), CI(2)))}
		},
		"exp of i32": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(si, CI(0), Exp(CI(1)))}
		},
		"not of f32": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(sf, CI(0), Sel(Not(CF(1)), CF(1), CF(2)))}
		},
		"f32 mux condition": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(sf, CI(0), Sel(CF(1), CF(1), CF(2)))}
		},
		"mux arms differ": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(sf, CI(0), Sel(Lt(CI(0), CI(1)), CF(1), CI(2)))}
		},
		"f32 address": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(sf, CF(0), CF(1))}
		},
		"f32 read address": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(sf, CI(0), Ld(sf, CF(0)))}
		},
		"f32 into i32 register": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{SetReg(ri, CF(1))}
		},
		"f32 modulo": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(sf, CI(0), Mod(CF(1), CF(2)))}
		},
		"bool accumulated with add": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			rb := b.Reg("rb", pattern.VB(false))
			return []*Assign{Accum(rb, pattern.Add, Lt(CI(0), CI(1)))}
		},
		"ToF32 of f32": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{SetReg(rf, F32(CF(1)))}
		},
		"condition is i32": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{{Kind: WriteReg, Reg: ri, Val: CI(1), Cond: CI(1)}}
		},
		"undeclared SRAM": func(b *Builder, sf, si *SRAM, rf, ri *Reg) []*Assign {
			return []*Assign{StoreAt(&SRAM{Name: "stray", Elem: pattern.F32, Size: 4}, CI(0), CF(1))}
		},
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			b := NewBuilder("typed", Sequential)
			sf := b.SRAM("sf", pattern.F32, 4)
			si := b.SRAM("si", pattern.I32, 4)
			rf := b.Reg("rf", pattern.VF(0))
			ri := b.Reg("ri", pattern.VI(0))
			b.Compute("never", []Counter{CStep(0, 0, 1)}, func([]Expr) []*Assign { return body(b, sf, si, rf, ri) })
			p, err := b.Build()
			if err != nil {
				t.Skipf("rejected by Finalize: %v", err)
			}
			if _, err := Run(p); err == nil || !strings.HasPrefix(err.Error(), "dhdl interp: ") {
				t.Fatalf("Run = %v, want a dhdl interp error", err)
			}
		})
	}
}

// TestTransfersRejectMalformed covers the transfer side of the static
// checks: data moves between memories of one element type, address
// streams and counts are i32, and offsets read only counters in scope.
func TestTransfersRejectMalformed(t *testing.T) {
	build := func(f func(b *Builder, d *DRAMBuf)) *Program {
		b := NewBuilder("xfer", Sequential)
		d := b.DRAMI32("d", 8)
		f(b, d)
		p := b.MustBuild()
		if err := d.Bind(pattern.NewI32("d", 8)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	progs := map[string]*Program{
		"i32 DRAM into f32 SRAM": build(func(b *Builder, d *DRAMBuf) {
			b.Load("ld", d, CI(0), b.SRAM("s", pattern.F32, 8), 8)
		}),
		"f32 address stream": build(func(b *Builder, d *DRAMBuf) {
			b.Gather("g", d, b.SRAM("a", pattern.F32, 8), b.SRAM("s", pattern.I32, 8), 8, nil)
		}),
		"f32 offset": build(func(b *Builder, d *DRAMBuf) {
			b.Load("ld", d, CF(0), b.SRAM("s", pattern.I32, 8), 8)
		}),
		"f32 count": build(func(b *Builder, d *DRAMBuf) {
			b.StoreFIFO("st", d, CI(0), b.FIFO("f", pattern.I32, 8), b.Reg("n", pattern.VF(0)))
		}),
		// Level 2 exists in the sibling compute, not in the load.
		"SRAM offset out of scope": build(func(b *Builder, d *DRAMBuf) {
			s := b.SRAM("s", pattern.I32, 8)
			b.Seq("outer", []Counter{C(2)}, func([]Expr) {
				b.LoadTiled("ld", []Counter{C(1)}, d, s, 4, func([]Expr) (Expr, Expr) {
					return CI(0), Idx(2)
				})
				b.Compute("deeper", []Counter{C(1), C(1)}, func(ix []Expr) []*Assign {
					return []*Assign{StoreAt(s, ix[1], ix[1])}
				})
			})
		}),
		"f32 counter limit": build(func(b *Builder, d *DRAMBuf) {
			n := b.Reg("n", pattern.VF(4))
			s := b.SRAM("s", pattern.I32, 8)
			b.Compute("c", []Counter{CDyn(n)}, func(ix []Expr) []*Assign { return []*Assign{StoreAt(s, ix[0], ix[0])} })
		}),
	}
	for name, p := range progs {
		if _, err := Run(p); err == nil {
			t.Errorf("%s: Run succeeded, want an error", name)
		}
	}
}

// TestBodyObservesPreIterationState pins the commit rule the compiled body
// must keep when assigns depend on each other: every assign of an
// iteration reads the state from before it, and writes land together.
func TestBodyObservesPreIterationState(t *testing.T) {
	b := NewBuilder("commit", Sequential)
	s := b.SRAM("s", pattern.I32, 4)
	r := b.Reg("r", pattern.VI(10))
	q := b.Reg("q", pattern.VI(0))
	b.Compute("c", []Counter{C(3)}, func(ix []Expr) []*Assign {
		return []*Assign{
			StoreAt(s, ix[0], Add(Rd(r), CI(1))), // s[i] = r + 1
			SetReg(r, Ld(s, ix[0])),              // r = old s[i]
			SetReg(q, Rd(r)),                     // q = old r
		}
	})
	p := b.MustBuild()
	st, err := CheckAgainstOracle(t, p)
	if err != nil {
		t.Fatal(err)
	}
	// i=0: s[0]=11, r=0, q=10; i=1: s[1]=1, r=0, q=0; i=2: s[2]=1, r=0, q=0.
	want := []int32{11, 1, 1, 0}
	for i, v := range st.SRAMData(s) {
		if v.I != want[i] {
			t.Errorf("s[%d] = %d, want %d", i, v.I, want[i])
		}
	}
	if st.RegValue(q).I != 0 || st.RegValue(r).I != 0 {
		t.Errorf("r, q = %d, %d, want 0, 0", st.RegValue(r).I, st.RegValue(q).I)
	}
}

// TestOperandsEvaluateLeftToRight pins operand order, which FIFO pops make
// observable: the left operand pops first.
func TestOperandsEvaluateLeftToRight(t *testing.T) {
	b := NewBuilder("order", Sequential)
	di, df := b.DRAMI32("di", 4), b.DRAMF32("df", 4)
	qi, qf := b.FIFO("qi", pattern.I32, 4), b.FIFO("qf", pattern.F32, 4)
	ri, rf := b.Reg("ri", pattern.VI(0)), b.Reg("rf", pattern.VF(0))
	rd, rl := b.Reg("rd", pattern.VI(0)), b.Reg("rl", pattern.VB(false))
	b.LoadFIFO("ldi", di, CI(0), qi, 4)
	b.LoadFIFO("ldf", df, CI(0), qf, 4)
	b.Compute("c", nil, func([]Expr) []*Assign {
		return []*Assign{
			SetReg(ri, Sub(Pop(qi), Pop(qi))), // 10 - 3
			SetReg(rd, Div(Pop(qi), Pop(qi))), // 8 / 2
			SetReg(rf, Sub(Pop(qf), Pop(qf))), // 1.5 - 4
			SetReg(rl, Lt(Pop(qf), Pop(qf))),  // 2 < 1
		}
	})
	p := b.MustBuild()
	if err := di.Bind(pattern.FromI32("di", []int32{10, 3, 8, 2})); err != nil {
		t.Fatal(err)
	}
	if err := df.Bind(pattern.FromF32("df", []float32{1.5, 4, 2, 1})); err != nil {
		t.Fatal(err)
	}
	st, err := CheckAgainstOracle(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(ri).I; got != 7 {
		t.Errorf("10 - 3 = %d", got)
	}
	if got := st.RegValue(rd).I; got != 4 {
		t.Errorf("8 / 2 = %d", got)
	}
	if got := st.RegValue(rf).F; got != -2.5 {
		t.Errorf("1.5 - 4 = %g", got)
	}
	if st.RegValue(rl).B {
		t.Error("2 < 1 holds")
	}
}

func TestTraceContextStopsCanceledRun(t *testing.T) {
	p, a, bb, _ := buildDot(256, 64)
	if err := a.Bind(pattern.NewF32("a", 256)); err != nil {
		t.Fatal(err)
	}
	if err := bb.Bind(pattern.NewF32("b", 256)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	leaves := 0
	_, err := TraceContext(ctx, p, func(*ExecEvent) {
		if leaves++; leaves == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TraceContext = %v, want context.Canceled", err)
	}
	if leaves != 3 {
		t.Errorf("%d leaves ran, want 3 (the run stops at the next leaf)", leaves)
	}
}

// TestCompiledMatchesOracleOnRandomPrograms generates small well-typed
// programs that mix every expression form, assign kind, address shape and
// counter shape, and requires the compiled interpreter to reproduce the
// oracle bit for bit — including the error, when a program divides by zero
// or pops an empty FIFO.
func TestCompiledMatchesOracleOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	failed := 0
	for i := 0; i < 400; i++ {
		p := randomProgram(r, fmt.Sprintf("rand%d", i))
		if _, err := CheckAgainstOracle(t, p); err != nil {
			failed++
		}
		if t.Failed() {
			t.Fatalf("program %d:\n%s", i, p.Tree())
		}
	}
	if failed > 200 {
		t.Errorf("%d of 400 programs failed at run time; the generator is too error-prone to cover much", failed)
	}
}

// progGen builds random Compute bodies over a fixed set of memories.
type progGen struct {
	r      *rand.Rand
	levels int // counter levels in scope
	sf, si *SRAM
	rf, ri *Reg
	rb     *Reg
	ff     *FIFOMem
}

const genSRAM = 64

func randomProgram(r *rand.Rand, name string) *Program {
	b := NewBuilder(name, Sequential)
	df, di := b.DRAMF32("df", genSRAM), b.DRAMI32("di", genSRAM)
	g := &progGen{r: r,
		sf: b.SRAM("sf", pattern.F32, genSRAM), si: b.SRAM("si", pattern.I32, genSRAM),
		rf: b.Reg("rf", pattern.VF(1.5)), ri: b.Reg("ri", pattern.VI(3)), rb: b.Reg("rb", pattern.VB(true)),
		ff: b.FIFO("ff", pattern.F32, genSRAM),
	}
	b.Seq("outer", []Counter{g.counter()}, func(ox []Expr) {
		b.Load("ldf", df, CI(0), g.sf, genSRAM)
		b.Load("ldi", di, CI(0), g.si, genSRAM)
		b.LoadFIFO("ldq", df, CI(0), g.ff, genSRAM/2)
		for c := 0; c < 1+r.Intn(2); c++ {
			chain := []Counter{g.counter()}
			if r.Intn(2) == 0 {
				chain = append(chain, g.counter())
			}
			g.levels = 1 + len(chain)
			b.Compute(fmt.Sprintf("c%d", c), chain, func([]Expr) []*Assign {
				body := make([]*Assign, 1+r.Intn(3))
				for i := range body {
					body[i] = g.assign()
				}
				return body
			})
		}
		b.Store("stf", df, CI(0), g.sf, genSRAM)
		b.Store("sti", di, CI(0), g.si, genSRAM)
	})
	p := b.MustBuild()
	fs, is := make([]float32, genSRAM), make([]int32, genSRAM)
	for i := range fs {
		fs[i] = g.f32Lit()
		is[i] = g.i32Lit()
	}
	if err := df.Bind(pattern.FromF32("df", fs)); err != nil {
		panic(err)
	}
	if err := di.Bind(pattern.FromI32("di", is)); err != nil {
		panic(err)
	}
	return p
}

// counter draws a chain level of at most 4 iterations, with an offset
// start and stride so affine registers see nonzero entry values.
func (g *progGen) counter() Counter {
	step := 1 + g.r.Intn(3)
	min := g.r.Intn(3)
	return CStep(min, min+step*g.r.Intn(5), step)
}

func (g *progGen) f32Lit() float32 {
	vals := []float32{0, 1, -1, 0.5, 2.5, -3.25, 1e30, float32(math.NaN()), float32(math.Inf(1))}
	if g.r.Intn(3) == 0 {
		return vals[g.r.Intn(len(vals))]
	}
	return float32(g.r.Intn(200)-100) / 8
}

func (g *progGen) i32Lit() int32 {
	if g.r.Intn(8) == 0 {
		return []int32{0, -1, math.MaxInt32, math.MinInt32}[g.r.Intn(4)]
	}
	return int32(g.r.Intn(41) - 20)
}

// addr is an in-range SRAM address: usually affine in the counters (with
// a coefficient on the outer level too), sometimes data dependent.
func (g *progGen) addr(depth int) Expr {
	if g.r.Intn(4) == 0 {
		m := Mod(g.i32(depth-1), CI(genSRAM))
		return Sel(Lt(m, CI(0)), Add(m, CI(genSRAM)), m)
	}
	var e Expr = CI(int32(g.r.Intn(4)))
	for l := 0; l < g.levels; l++ {
		switch g.r.Intn(3) {
		case 1:
			e = Add(e, Idx(l))
		case 2:
			e = Add(Mul(Idx(l), CI(int32(1+g.r.Intn(3)))), e)
		}
	}
	return e
}

func (g *progGen) f32(depth int) Expr {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(5) {
		case 0:
			return CF(g.f32Lit())
		case 1:
			return Rd(g.rf)
		case 2:
			if g.r.Intn(4) == 0 {
				return Pop(g.ff)
			}
			return Ld(g.sf, g.addr(depth))
		case 3:
			return Ld(g.sf, g.addr(depth))
		}
		return F32(g.i32(depth - 1))
	}
	switch g.r.Intn(4) {
	case 0:
		return Sel(g.boolean(depth-1), g.f32(depth-1), g.f32(depth-1))
	case 1:
		ops := []func(Expr) Expr{Neg, Abs, Exp, Log, Sqrt}
		return ops[g.r.Intn(len(ops))](g.f32(depth - 1))
	}
	ops := []func(x, y Expr) Expr{Add, Sub, Mul, Div, Min, Max}
	return ops[g.r.Intn(len(ops))](g.f32(depth-1), g.f32(depth-1))
}

func (g *progGen) i32(depth int) Expr {
	if depth <= 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(5) {
		case 0:
			return CI(g.i32Lit())
		case 1:
			return Idx(g.r.Intn(g.levels))
		case 2:
			return Rd(g.ri)
		case 3:
			return Ld(g.si, g.addr(depth))
		}
		return I32(g.f32(depth - 1))
	}
	switch g.r.Intn(4) {
	case 0:
		return Sel(g.boolean(depth-1), g.i32(depth-1), g.i32(depth-1))
	case 1:
		return []func(Expr) Expr{Neg, Abs}[g.r.Intn(2)](g.i32(depth - 1))
	}
	ops := []func(x, y Expr) Expr{Add, Sub, Mul, Div, Mod, Min, Max}
	return ops[g.r.Intn(len(ops))](g.i32(depth-1), g.i32(depth-1))
}

func (g *progGen) boolean(depth int) Expr {
	if depth <= 0 || g.r.Intn(4) == 0 {
		if g.r.Intn(2) == 0 {
			return Rd(g.rb)
		}
		return &Lit{pattern.VB(g.r.Intn(2) == 0)}
	}
	cmps := []func(x, y Expr) Expr{Lt, Le, Gt, Ge, Eq, Ne}
	switch g.r.Intn(5) {
	case 0:
		return cmps[g.r.Intn(len(cmps))](g.f32(depth-1), g.f32(depth-1))
	case 1:
		return cmps[g.r.Intn(len(cmps))](g.i32(depth-1), g.i32(depth-1))
	case 2:
		return Not(g.boolean(depth - 1))
	case 3:
		return Sel(g.boolean(depth-1), g.boolean(depth-1), g.boolean(depth-1))
	}
	ops := []func(x, y Expr) Expr{And, Or, Eq, Ne}
	return ops[g.r.Intn(len(ops))](g.boolean(depth-1), g.boolean(depth-1))
}

func (g *progGen) assign() *Assign {
	const depth = 3
	var a *Assign
	fsum := []pattern.Op{pattern.Add, pattern.Mul, pattern.Min, pattern.Max}[g.r.Intn(4)]
	switch g.r.Intn(9) {
	case 0:
		a = StoreAt(g.sf, g.addr(depth), g.f32(depth))
	case 1:
		a = StoreAt(g.si, g.addr(depth), g.i32(depth))
	case 2:
		a = AccumAt(g.sf, fsum, g.addr(depth), g.f32(depth))
	case 3:
		a = AccumAt(g.si, fsum, g.addr(depth), g.i32(depth))
	case 4:
		a = SetReg([]*Reg{g.rf, g.ri, g.rb}[g.r.Intn(3)], nil)
		switch a.Reg.Elem {
		case pattern.F32:
			a.Val = g.f32(depth)
		case pattern.I32:
			a.Val = g.i32(depth)
		default:
			a.Val = g.boolean(depth)
		}
	case 5:
		a = Accum(g.rf, fsum, g.f32(depth))
	case 6:
		a = Accum(g.ri, fsum, g.i32(depth))
	case 7:
		a = Accum(g.rb, []pattern.Op{pattern.And, pattern.Or}[g.r.Intn(2)], g.boolean(depth))
	default:
		a = Push(g.ff, g.f32(depth))
	}
	if g.r.Intn(3) == 0 {
		a.Cond = g.boolean(2)
	}
	return a
}
