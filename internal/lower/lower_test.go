package lower

import (
	"context"
	"math"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
	"plasticine/internal/sim"
)

func TestLowerMapMatchesPatternEvaluator(t *testing.T) {
	n := 4096
	a := pattern.NewF32("a", n)
	b := pattern.NewF32("b", n)
	for i := 0; i < n; i++ {
		a.SetF32(float32(i%13)*0.5, i)
		b.SetF32(float32(i%7)-3, i)
	}
	p := pattern.Map([]int{n}, pattern.Add2(
		pattern.Mul2(pattern.At(a, pattern.Index(0)), pattern.At(b, pattern.Index(0))),
		pattern.F(1)))
	want, err := pattern.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pattern(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dhdl.Run(res.Prog); err != nil {
		t.Fatal(err)
	}
	got := res.OutData.F32Data()
	for i := range got {
		if got[i] != want[i].F {
			t.Fatalf("out[%d] = %g, want %g", i, got[i], want[i].F)
		}
	}
}

func TestLowerMapUsesGlobalIndexValue(t *testing.T) {
	// Body uses the index itself as a value: out[i] = i * 2.
	n := 2048
	p := pattern.Map([]int{n}, pattern.Mul2(pattern.Index(0), pattern.I(2)))
	res, err := Pattern(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dhdl.Run(res.Prog); err != nil {
		t.Fatal(err)
	}
	got := res.OutData.I32Data()
	for i := range got {
		if got[i] != int32(2*i) {
			t.Fatalf("out[%d] = %d, want %d (local/global index confusion)", i, got[i], 2*i)
		}
	}
}

func TestLowerFoldDotProduct(t *testing.T) {
	n := 8192
	a := pattern.NewF32("a", n)
	b := pattern.NewF32("b", n)
	var want float64
	for i := 0; i < n; i++ {
		a.SetF32(float32(i%11)*0.25, i)
		b.SetF32(float32(i%5)-2, i)
		want += float64(a.F32At(i)) * float64(b.F32At(i))
	}
	p := pattern.Fold([]int{n}, pattern.F(0),
		pattern.Mul2(pattern.At(a, pattern.Index(0)), pattern.At(b, pattern.Index(0))),
		pattern.Add)
	res, err := Pattern(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dhdl.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(st.RegValue(res.OutReg).F)
	if math.Abs(got-want) > 1e-2*math.Abs(want)+1e-3 {
		t.Fatalf("fold = %g, want %g", got, want)
	}
}

func TestLowerFoldMaxUsesIdentity(t *testing.T) {
	// All-negative data: a zero-initialised accumulator would corrupt Max.
	n := 1024
	a := pattern.NewF32("a", n)
	want := float32(-1e9)
	for i := 0; i < n; i++ {
		v := -float32(i%97) - 1
		a.SetF32(v, i)
		if v > want {
			want = v
		}
	}
	p := pattern.Fold([]int{n}, pattern.F(-3.4e38),
		pattern.At(a, pattern.Index(0)), pattern.Max)
	res, err := Pattern(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dhdl.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(res.OutReg).F; got != want {
		t.Fatalf("max = %g, want %g", got, want)
	}
}

func TestLowerFilter(t *testing.T) {
	n := 4096
	a := pattern.NewI32("a", n)
	var want []int32
	for i := 0; i < n; i++ {
		a.SetI32(int32((i*7)%50), i)
		if a.I32At(i) < 10 {
			want = append(want, a.I32At(i))
		}
	}
	p := pattern.Filter([]int{n},
		pattern.Lt2(pattern.At(a, pattern.Index(0)), pattern.I(10)),
		pattern.At(a, pattern.Index(0)))
	res, err := Pattern(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dhdl.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(res.CountReg).I; got != int32(len(want)) {
		t.Fatalf("count = %d, want %d", got, len(want))
	}
	out := res.OutData.I32Data()
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], w)
		}
	}
}

func TestLowerHashReduceHistogram(t *testing.T) {
	n, bins := 4096, 16
	a := pattern.NewI32("a", n)
	want := make([]int32, bins)
	for i := 0; i < n; i++ {
		a.SetI32(int32((i*31)%bins), i)
		want[a.I32At(i)]++
	}
	p := pattern.HashReduce([]int{n},
		pattern.At(a, pattern.Index(0)),
		[]pattern.Expr{pattern.I(1)},
		pattern.Add, bins)
	res, err := Pattern(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dhdl.Run(res.Prog); err != nil {
		t.Fatal(err)
	}
	got := res.BinsData[0].I32Data()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("bin %d = %d, want %d", k, got[k], want[k])
		}
	}
}

func TestLoweredProgramsCompileAndSimulate(t *testing.T) {
	n := 4096
	a := pattern.NewF32("a", n)
	for i := 0; i < n; i++ {
		a.SetF32(float32(i), i)
	}
	p := pattern.Fold([]int{n}, pattern.F(0), pattern.At(a, pattern.Index(0)), pattern.Add)
	res, err := Pattern(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := compiler.CompileOpts(context.Background(), res.Prog, compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	simRes, st, err := sim.Simulate(context.Background(), m, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := float32(n) * float32(n-1) / 2
	if got := st.RegValue(res.OutReg).F; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	if simRes.Cycles <= 0 {
		t.Error("no cycles")
	}
}

func TestLowerRejectsUnsupported(t *testing.T) {
	a2d := pattern.NewF32("a2", 8, 8)
	a1d := pattern.NewF32("a1", 64)
	cases := []pattern.Pattern{
		// 2-D domain.
		pattern.Map([]int{8, 8}, pattern.F(0)),
		// Non-streaming read (gather at computed index).
		pattern.Map([]int{64}, pattern.At(a1d, pattern.Mul2(pattern.Index(0), pattern.I(2)))),
		// 2-D collection read.
		pattern.Map([]int{8}, pattern.At(a2d, pattern.Index(0), pattern.Index(0))),
		// Sparse HashReduce.
		pattern.HashReduce([]int{64}, pattern.I(0), []pattern.Expr{pattern.I(1)}, pattern.Add, 0),
	}
	for i, p := range cases {
		if _, err := Pattern(p, Options{Tile: 8}); err == nil {
			t.Errorf("case %d: expected lowering error", i)
		}
	}
}

func TestLowerTileShrinksToDivisor(t *testing.T) {
	// n = 1536 has no 1024 divisor; the tile shrinks to 512.
	n := 1536
	a := pattern.NewF32("a", n)
	for i := 0; i < n; i++ {
		a.SetF32(1, i)
	}
	p := pattern.Fold([]int{n}, pattern.F(0), pattern.At(a, pattern.Index(0)), pattern.Add)
	res, err := Pattern(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dhdl.Run(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(res.OutReg).F; got != float32(n) {
		t.Fatalf("sum = %g, want %d", got, n)
	}
}
