package dhdl

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"plasticine/internal/pattern"
)

// buildDot builds a tiled dot product: for each tile, load a and b tiles,
// fold their products into a scalar, accumulate tile results in a register.
func buildDot(n, tile int) (*Program, *DRAMBuf, *DRAMBuf, *Reg) {
	b := NewBuilder("dot", Sequential)
	a := b.DRAMF32("a", n)
	bb := b.DRAMF32("b", n)
	ta := b.SRAM("ta", pattern.F32, tile)
	tb := b.SRAM("tb", pattern.F32, tile)
	partial := b.Reg("partial", pattern.VF(0))
	total := b.Reg("total", pattern.VF(0))

	b.Pipe("tiles", []Counter{CStep(0, n, tile)}, func(ix []Expr) {
		b.Load("loadA", a, ix[0], ta, tile)
		b.Load("loadB", bb, ix[0], tb, tile)
		b.Compute("mac", []Counter{CPar(tile, 16)}, func(jx []Expr) []*Assign {
			return []*Assign{Accum(partial, pattern.Add, Mul(Ld(ta, jx[0]), Ld(tb, jx[0])))}
		})
		// Cross-tile accumulation: read-modify-write of a register.
		// (ReduceReg resets per leaf execution; it implements Fold within
		// one leaf, not accumulation across leaf executions.)
		b.Compute("acc", []Counter{C(1)}, func([]Expr) []*Assign {
			return []*Assign{SetReg(total, Add(Rd(total), Rd(partial)))}
		})
	})
	return b.MustBuild(), a, bb, total
}

func TestInterpTiledDotProduct(t *testing.T) {
	n, tile := 256, 64
	p, a, bb, total := buildDot(n, tile)
	av := make([]float32, n)
	bv := make([]float32, n)
	var want float64
	for i := range av {
		av[i] = float32(i%13) * 0.5
		bv[i] = float32(i%7) - 3
		want += float64(av[i]) * float64(bv[i])
	}
	if err := a.Bind(pattern.FromF32("a", av)); err != nil {
		t.Fatal(err)
	}
	if err := bb.Bind(pattern.FromF32("b", bv)); err != nil {
		t.Fatal(err)
	}
	st, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(st.RegValue(total).F)
	if math.Abs(got-want) > 1e-2*math.Abs(want)+1e-3 {
		t.Fatalf("dot = %g, want %g", got, want)
	}
}

func TestInterpVectorAddStore(t *testing.T) {
	n, tile := 128, 32
	b := NewBuilder("vadd", Sequential)
	a := b.DRAMF32("a", n)
	bb := b.DRAMF32("b", n)
	c := b.DRAMF32("c", n)
	ta := b.SRAM("ta", pattern.F32, tile)
	tb := b.SRAM("tb", pattern.F32, tile)
	tc := b.SRAM("tc", pattern.F32, tile)
	b.Pipe("tiles", []Counter{CStep(0, n, tile)}, func(ix []Expr) {
		b.Load("la", a, ix[0], ta, tile)
		b.Load("lb", bb, ix[0], tb, tile)
		b.Compute("add", []Counter{CPar(tile, 16)}, func(jx []Expr) []*Assign {
			return []*Assign{StoreAt(tc, jx[0], Add(Ld(ta, jx[0]), Ld(tb, jx[0])))}
		})
		b.Store("sc", c, ix[0], tc, tile)
	})
	p := b.MustBuild()

	av, bv, cv := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range av {
		av[i], bv[i] = float32(i), float32(3*i)
	}
	mustBind(t, a, pattern.FromF32("a", av))
	mustBind(t, bb, pattern.FromF32("b", bv))
	mustBind(t, c, pattern.FromF32("c", cv))
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	for i := range cv {
		if cv[i] != float32(4*i) {
			t.Fatalf("c[%d] = %g, want %g", i, cv[i], float32(4*i))
		}
	}
}

func mustBind(t *testing.T, d *DRAMBuf, c *pattern.Collection) {
	t.Helper()
	if err := d.Bind(c); err != nil {
		t.Fatal(err)
	}
}

func TestInterpFilterWithDynamicStore(t *testing.T) {
	// TPC-H Q6 shape: stream, filter into FIFO, count, store count values.
	n := 96
	b := NewBuilder("filter", Sequential)
	in := b.DRAMI32("in", n)
	out := b.DRAMI32("out", n)
	cnt := b.Reg("cnt", pattern.VI(0))
	fifo := b.FIFO("kept", pattern.I32, n)
	tin := b.SRAM("tin", pattern.I32, n)
	b.Seq("body", nil, func([]Expr) {
		b.Load("ld", in, CI(0), tin, n)
		b.Compute("flt", []Counter{CPar(n, 16)}, func(ix []Expr) []*Assign {
			v := Ld(tin, ix[0])
			keep := Lt(v, CI(10))
			return []*Assign{
				PushIf(fifo, keep, v),
				AccumIf(cnt, pattern.Add, keep, CI(1)),
			}
		})
		b.StoreFIFO("st", out, CI(0), fifo, cnt)
	})
	p := b.MustBuild()

	iv := make([]int32, n)
	var want []int32
	for i := range iv {
		iv[i] = int32((i * 11) % 25)
		if iv[i] < 10 {
			want = append(want, iv[i])
		}
	}
	ov := make([]int32, n)
	mustBind(t, in, pattern.FromI32("in", iv))
	mustBind(t, out, pattern.FromI32("out", ov))
	st, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(cnt).I; got != int32(len(want)) {
		t.Fatalf("count = %d, want %d", got, len(want))
	}
	for i, w := range want {
		if ov[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, ov[i], w)
		}
	}
}

func TestInterpGatherScatter(t *testing.T) {
	n := 64
	b := NewBuilder("gs", Sequential)
	table := b.DRAMF32("table", n)
	dst := b.DRAMF32("dst", n)
	idxBuf := b.DRAMI32("idx", 8)
	addrs := b.SRAM("addrs", pattern.I32, 8)
	vals := b.SRAMBanked("vals", pattern.F32, 8, Duplication)
	scaled := b.SRAM("scaled", pattern.F32, 8)
	b.Seq("body", nil, func([]Expr) {
		b.Load("li", idxBuf, CI(0), addrs, 8)
		b.Gather("g", table, addrs, vals, 8, nil)
		b.Compute("scale", []Counter{C(8)}, func(ix []Expr) []*Assign {
			return []*Assign{StoreAt(scaled, ix[0], Mul(Ld(vals, ix[0]), CF(2)))}
		})
		b.Scatter("s", dst, addrs, scaled, 8, nil)
	})
	p := b.MustBuild()

	tv := make([]float32, n)
	for i := range tv {
		tv[i] = float32(i) + 0.5
	}
	ix := []int32{3, 60, 7, 31, 0, 12, 55, 9}
	dv := make([]float32, n)
	mustBind(t, table, pattern.FromF32("t", tv))
	mustBind(t, dst, pattern.FromF32("d", dv))
	mustBind(t, idxBuf, pattern.FromI32("i", ix))
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	for _, i := range ix {
		if dv[i] != 2*tv[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dv[i], 2*tv[i])
		}
	}
}

func TestInterpHistogramReduceSRAM(t *testing.T) {
	n, bins := 200, 8
	b := NewBuilder("hist", Sequential)
	data := b.DRAMI32("data", n)
	td := b.SRAM("td", pattern.I32, n)
	hist := b.SRAM("hist", pattern.I32, bins)
	b.Seq("body", nil, func([]Expr) {
		b.Load("ld", data, CI(0), td, n)
		b.Compute("bin", []Counter{C(n)}, func(ix []Expr) []*Assign {
			return []*Assign{AccumAt(hist, pattern.Add, Mod(Ld(td, ix[0]), CI(int32(bins))), CI(1))}
		})
	})
	p := b.MustBuild()
	dv := make([]int32, n)
	want := make([]int32, bins)
	for i := range dv {
		dv[i] = int32(i * 7)
		want[dv[i]%int32(bins)]++
	}
	mustBind(t, data, pattern.FromI32("d", dv))
	st, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	got := st.SRAMData(hist)
	for k := 0; k < bins; k++ {
		if got[k].I != want[k] {
			t.Errorf("hist[%d] = %d, want %d", k, got[k].I, want[k])
		}
	}
}

func TestInterpDynamicCounter(t *testing.T) {
	// A register-limited loop (BFS frontier shape): compute writes a count,
	// a later loop iterates [0, count).
	b := NewBuilder("dyn", Sequential)
	lim := b.Reg("lim", pattern.VI(0))
	sum := b.Reg("sum", pattern.VI(0))
	b.Seq("body", nil, func([]Expr) {
		b.Compute("setLim", []Counter{C(1)}, func([]Expr) []*Assign {
			return []*Assign{SetReg(lim, CI(5))}
		})
		b.Compute("loop", []Counter{CDyn(lim)}, func(ix []Expr) []*Assign {
			return []*Assign{Accum(sum, pattern.Add, ix[0])}
		})
	})
	p := b.MustBuild()
	st, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(sum).I; got != 10 { // 0+1+2+3+4
		t.Fatalf("sum = %d, want 10", got)
	}
}

func TestInterpLineBufferStencil(t *testing.T) {
	// 1-D 3-tap stencil over a tile: out[i] = in[i-1]+in[i]+in[i+1].
	n := 32
	b := NewBuilder("stencil", Sequential)
	in := b.DRAMF32("in", n)
	out := b.DRAMF32("out", n)
	tin := b.SRAMBanked("tin", pattern.F32, n, LineBuffer)
	tout := b.SRAM("tout", pattern.F32, n)
	b.Seq("body", nil, func([]Expr) {
		b.Load("ld", in, CI(0), tin, n)
		b.Compute("sten", []Counter{CStep(1, n-1, 1)}, func(ix []Expr) []*Assign {
			i := ix[0]
			v := Add(Add(Ld(tin, Sub(i, CI(1))), Ld(tin, i)), Ld(tin, Add(i, CI(1))))
			return []*Assign{StoreAt(tout, i, v)}
		})
		b.Store("st", out, CI(0), tout, n)
	})
	p := b.MustBuild()
	iv := make([]float32, n)
	for i := range iv {
		iv[i] = float32(i * i % 17)
	}
	ov := make([]float32, n)
	mustBind(t, in, pattern.FromF32("in", iv))
	mustBind(t, out, pattern.FromF32("out", ov))
	if _, err := Run(p); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n-1; i++ {
		want := iv[i-1] + iv[i] + iv[i+1]
		if ov[i] != want {
			t.Errorf("out[%d] = %g, want %g", i, ov[i], want)
		}
	}
}

func TestCounterTrips(t *testing.T) {
	cases := []struct {
		c    Counter
		want int
	}{
		{C(10), 10},
		{CStep(0, 10, 3), 4},
		{CStep(5, 5, 1), 0},
		{CPar(16, 4), 16},
		{CDyn(&Reg{}), -1},
	}
	for i, c := range cases {
		if got := c.c.Trips(); got != c.want {
			t.Errorf("case %d: Trips = %d, want %d", i, got, c.want)
		}
	}
}

// TestFinalizeOnlyValidatesDepths: Build assigns each controller's counter
// depth, and Finalize, which compiles and traces call again on a shared
// program, checks the depths without writing them.
func TestFinalizeOnlyValidatesDepths(t *testing.T) {
	b := NewBuilder("nested", Sequential)
	s := b.SRAM("s", pattern.I32, 8)
	b.Seq("outer", []Counter{C(2)}, func([]Expr) {
		b.Compute("inner", []Counter{C(4)}, func(ix []Expr) []*Assign {
			return []*Assign{StoreAt(s, ix[0], ix[0])}
		})
	})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inner := p.Leaves()[0]
	if inner.Depth != 1 {
		t.Fatalf("Build gave inner depth %d, want 1", inner.Depth)
	}
	inner.Depth = 0
	if err := p.Finalize(); err == nil || !strings.Contains(err.Error(), "counter depth 0, want 1") {
		t.Fatalf("Finalize with a wrong depth = %v, want a depth error", err)
	}
	if inner.Depth != 0 {
		t.Fatalf("Finalize rewrote the depth to %d", inner.Depth)
	}
}

func TestFinalizeRejectsMalformed(t *testing.T) {
	r := &Reg{Name: "r", Elem: pattern.I32, Init: pattern.VI(0)}
	s := &SRAM{Name: "s", Elem: pattern.F32, Size: 4, NBuf: 1}
	cases := []*Program{
		{Name: "noroot"},
		{Name: "emptyOuter", Root: &Controller{Kind: Sequential}},
		{Name: "leafWithKids", Root: &Controller{Kind: Sequential, Children: []*Controller{
			{Kind: ComputeKind, Body: []*Assign{SetReg(r, CI(0))},
				Children: []*Controller{{Kind: ComputeKind}}},
		}}},
		{Name: "emptyCompute", Root: &Controller{Kind: Sequential, Children: []*Controller{
			{Kind: ComputeKind},
		}}},
		{Name: "outOfScopeCtr", Root: &Controller{Kind: Sequential, Children: []*Controller{
			{Kind: ComputeKind, Chain: []Counter{C(4)}, Body: []*Assign{SetReg(r, Idx(3))}},
		}}},
		{Name: "badAssign", Root: &Controller{Kind: Sequential, Children: []*Controller{
			{Kind: ComputeKind, Chain: []Counter{C(4)}, Body: []*Assign{{Kind: WriteSRAM, Val: CI(0)}}}, // no SRAM
		}}},
		{Name: "badReduce", Root: &Controller{Kind: Sequential, Children: []*Controller{
			{Kind: ComputeKind, Chain: []Counter{C(4)},
				Body: []*Assign{{Kind: ReduceReg, Reg: r, Val: CI(0), Combine: pattern.Sub}}},
		}}},
		{Name: "xferNoDRAM", Root: &Controller{Kind: Sequential, Children: []*Controller{
			{Kind: LoadKind, Xfer: &Transfer{SRAM: s, Len: 4}},
		}}},
		{Name: "xferTooBig", Root: &Controller{Kind: Sequential, Children: []*Controller{
			{Kind: LoadKind, Xfer: &Transfer{DRAM: &DRAMBuf{Name: "d", Dims: []int{64}}, SRAM: s, Len: 16}},
		}}},
	}
	for _, p := range cases {
		if err := p.Finalize(); err == nil {
			t.Errorf("%s: expected Finalize error", p.Name)
		}
	}
}

// TestMustBuildPanicsOnFailedBuild: a build error reaches the caller as a
// panic carrying Build's error, never as a program without footprints.
func TestMustBuildPanicsOnFailedBuild(t *testing.T) {
	newBuilder := func() *Builder {
		b := NewBuilder("broken", Sequential)
		r := b.Reg("r", pattern.VI(0))
		b.Compute("c", []Counter{C(4)}, func(ix []Expr) []*Assign { return []*Assign{SetReg(r, ix[0])} })
		b.Errf("cannot translate %q", "x")
		return b
	}
	_, want := newBuilder().Build()
	if want == nil {
		t.Fatal("Build accepted a builder with a recorded error")
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		newBuilder().MustBuild()
		return nil
	}()
	if got == nil {
		t.Fatal("MustBuild returned a program from a failed build")
	}
	if err, ok := got.(error); !ok || err.Error() != want.Error() {
		t.Fatalf("MustBuild panicked with %v, want Build's error %q", got, want)
	}
}

// TestNegativeStepIsRejected: Trips counts a counter with a step below 1
// as zero iterations, so the interpreter must refuse it up front rather
// than count towards the limit through 2^31 wrapped iterations.
func TestNegativeStepIsRejected(t *testing.T) {
	r := &Reg{Name: "r", Elem: pattern.I32, Init: pattern.VI(0)}
	p := &Program{Name: "backwards", Regs: []*Reg{r}, Root: &Controller{Kind: Sequential, Children: []*Controller{
		{Name: "down", Kind: ComputeKind, Chain: []Counter{{Min: 0, Max: 4, Step: -1, Par: 1}},
			Body: []*Assign{SetReg(r, Idx(0))}},
	}}}
	done := make(chan error, 1)
	go func() { _, err := Run(p); done <- err }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "step -1") {
			t.Fatalf("Run = %v, want a step error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run of a counter with step -1 did not return")
	}
}

func TestBuilderRejectsNestingUnderLeaf(t *testing.T) {
	b := NewBuilder("bad", Sequential)
	r := b.Reg("r", pattern.VI(0))
	b.Compute("leaf", nil, func([]Expr) []*Assign { return []*Assign{SetReg(r, CI(1))} })
	// Builder.add guards nesting under leaves via the stack, so this is
	// detected at Build time through tree validation instead: a leaf is
	// never pushed on the stack, so this nests under root — fine. Verify
	// unbalanced detection instead by corrupting the stack depth.
	b.stack = append(b.stack, &Controller{Kind: Sequential})
	if _, err := b.Build(); err == nil {
		t.Error("expected unbalanced-nesting error")
	}
}

func TestInterpReportsUnboundDRAM(t *testing.T) {
	b := NewBuilder("unbound", Sequential)
	d := b.DRAMF32("d", 16)
	s := b.SRAM("s", pattern.F32, 16)
	b.Seq("x", nil, func([]Expr) { b.Load("ld", d, CI(0), s, 16) })
	p := b.MustBuild()
	if _, err := Run(p); err == nil {
		t.Error("expected unbound-DRAM error")
	}
}

func TestInterpOutOfBoundsAddressError(t *testing.T) {
	b := NewBuilder("oob", Sequential)
	s := b.SRAM("s", pattern.F32, 4)
	b.Compute("w", []Counter{C(8)}, func(ix []Expr) []*Assign {
		return []*Assign{StoreAt(s, ix[0], CF(1))}
	})
	p := b.MustBuild()
	if _, err := Run(p); err == nil {
		t.Error("expected out-of-range address error")
	}
}

func TestExprHelpers(t *testing.T) {
	s := &SRAM{Name: "s", Elem: pattern.F32, Size: 8}
	f := &FIFOMem{Name: "f", Elem: pattern.F32, Depth: 4}
	r := &Reg{Name: "r", Elem: pattern.F32}
	e := Sel(Lt(Idx(0), CI(4)), Add(Ld(s, Idx(0)), Pop(f)), Rd(r))
	if e.Type() != pattern.F32 {
		t.Errorf("type = %v, want f32", e.Type())
	}
	if got := CountOps(e); got != 3 { // mux, lt, add
		t.Errorf("CountOps = %d, want 3", got)
	}
	if got := MaxCtrLevel(e); got != 0 {
		t.Errorf("MaxCtrLevel = %d, want 0", got)
	}
	if got := addReads(nil, e); !slices.Equal(got, []any{s, f, r}) {
		t.Errorf("addReads = %v, want [s f r]", got)
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{Sequential, Pipeline, Stream, Parallel} {
		if !k.IsOuter() {
			t.Errorf("%v should be outer", k)
		}
	}
	for _, k := range []Kind{LoadKind, StoreKind, GatherKind, ScatterKind, ComputeKind} {
		if k.IsOuter() {
			t.Errorf("%v should not be outer", k)
		}
	}
}
