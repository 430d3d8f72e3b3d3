package pattern

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMapMatrixAdd(t *testing.T) {
	a := NewF32("a", 4, 3)
	b := NewF32("b", 4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			a.SetF32(float32(i*3+j), i, j)
			b.SetF32(float32(10*(i*3+j)), i, j)
		}
	}
	p := Map([]int{4, 3}, Add2(At(a, Index(0), Index(1)), At(b, Index(0), Index(1))))
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 12 {
		t.Fatalf("got %d outputs, want 12", len(out))
	}
	for k, v := range out {
		want := float32(11 * k)
		if v.F != want {
			t.Errorf("out[%d] = %g, want %g", k, v.F, want)
		}
	}
}

func TestFoldDotProduct(t *testing.T) {
	n := 64
	a := NewF32("a", n)
	b := NewF32("b", n)
	var want float64
	for i := 0; i < n; i++ {
		a.SetF32(float32(i), i)
		b.SetF32(float32(2*i), i)
		want += float64(i) * float64(2*i)
	}
	p := Fold([]int{n}, F(0), Mul2(At(a, Index(0)), At(b, Index(0))), Add)
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(out[0].F); math.Abs(got-want) > 1e-3*want {
		t.Errorf("dot = %g, want %g", got, want)
	}
}

func TestFoldMatmulCell(t *testing.T) {
	// Figure 1: untiled matmul = Map(M,P){ Fold(N){ a(i,k)*b(k,j) } }.
	const M, N, P = 3, 5, 2
	a := NewF32("a", M, N)
	b := NewF32("b", N, P)
	for i := 0; i < M; i++ {
		for k := 0; k < N; k++ {
			a.SetF32(float32(i+k), i, k)
		}
	}
	for k := 0; k < N; k++ {
		for j := 0; j < P; j++ {
			b.SetF32(float32(k*j+1), k, j)
		}
	}
	for i := 0; i < M; i++ {
		for j := 0; j < P; j++ {
			// Inner Fold over k with fixed (i, j): index dim 0 is k.
			body := Mul2(At(a, I(int32(i)), Index(0)), At(b, Index(0), I(int32(j))))
			out, err := Run(Fold([]int{N}, F(0), body, Add))
			if err != nil {
				t.Fatal(err)
			}
			var want float32
			for k := 0; k < N; k++ {
				want += a.F32At(i, k) * b.F32At(k, j)
			}
			if out[0].F != want {
				t.Errorf("c(%d,%d) = %g, want %g", i, j, out[0].F, want)
			}
		}
	}
}

func TestFilterKeepsMatchingOnly(t *testing.T) {
	n := 100
	items := NewI32("items", n)
	for i := 0; i < n; i++ {
		items.SetI32(int32(i%7), i)
	}
	// filter{ item < 3 } yields the item value.
	p := Filter([]int{n}, Lt2(At(items, Index(0)), I(3)), At(items, Index(0)))
	out, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if i%7 < 3 {
			want++
		}
	}
	if len(out) != want {
		t.Fatalf("filter kept %d, want %d", len(out), want)
	}
	for _, v := range out {
		if v.I >= 3 {
			t.Errorf("kept value %d >= 3", v.I)
		}
	}
}

func TestHashReduceHistogram(t *testing.T) {
	// Section 2.1: histogram = HashReduce(key=bin, value=1, combine=add).
	n := 1000
	data := NewI32("data", n)
	wantCounts := map[int32]int32{}
	for i := 0; i < n; i++ {
		bin := int32((i * 37) % 10)
		data.SetI32(bin, i)
		wantCounts[bin]++
	}
	p := HashReduce([]int{n}, At(data, Index(0)), []Expr{I(1)}, Add, 10)
	acc, err := RunHash(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc) != len(wantCounts) {
		t.Fatalf("got %d bins, want %d", len(acc), len(wantCounts))
	}
	for k, want := range wantCounts {
		if got := acc[k][0].I; got != want {
			t.Errorf("bin %d count = %d, want %d", k, got, want)
		}
	}
}

func TestHashReduceTupleValues(t *testing.T) {
	// TPC-H Q1 shape (Figure 2): multiple value functions combined per key.
	n := 60
	key := NewI32("k", n)
	qty := NewF32("q", n)
	for i := 0; i < n; i++ {
		key.SetI32(int32(i%3), i)
		qty.SetF32(float32(i), i)
	}
	p := HashReduce([]int{n},
		At(key, Index(0)),
		[]Expr{At(qty, Index(0)), F(1)}, // (sum of qty, count)
		Add, 3)
	acc, err := RunHash(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := int32(0); k < 3; k++ {
		var wantSum float32
		var wantCnt float32
		for i := 0; i < n; i++ {
			if int32(i%3) == k {
				wantSum += float32(i)
				wantCnt++
			}
		}
		if acc[k][0].F != wantSum || acc[k][1].F != wantCnt {
			t.Errorf("key %d = (%g, %g), want (%g, %g)", k, acc[k][0].F, acc[k][1].F, wantSum, wantCnt)
		}
	}
}

func TestEvalMuxAndComparisons(t *testing.T) {
	e := Select(Ge2(Index(0), I(5)), F(1), F(-1))
	if got := Eval(e, []int{7}); got.F != 1 {
		t.Errorf("mux(7>=5) = %g, want 1", got.F)
	}
	if got := Eval(e, []int{3}); got.F != -1 {
		t.Errorf("mux(3>=5) = %g, want -1", got.F)
	}
}

func TestEvalUnaryOps(t *testing.T) {
	cases := []struct {
		e    Expr
		want float64
		tol  float64
	}{
		{&Un{Neg, F(2)}, -2, 0},
		{&Un{Abs, F(-3)}, 3, 0},
		{&Un{Sqrt, F(16)}, 4, 1e-6},
		{&Un{Exp, F(0)}, 1, 1e-6},
		{&Un{Log, F(1)}, 0, 1e-6},
		{&Un{Rcp, F(4)}, 0.25, 1e-6},
		{&Un{Neg, I(5)}, -5, 0},
		{&Un{Abs, I(-5)}, 5, 0},
	}
	for i, c := range cases {
		if got := Eval(c.e, nil).AsF64(); math.Abs(got-c.want) > c.tol {
			t.Errorf("case %d: got %g, want %g", i, got, c.want)
		}
	}
}

func TestEvalTypeConversions(t *testing.T) {
	if got := Eval(&ToF32{I(7)}, nil); got.T != F32 || got.F != 7 {
		t.Errorf("f32(7) = %+v", got)
	}
	if got := Eval(&ToI32{F(3.9)}, nil); got.T != I32 || got.I != 3 {
		t.Errorf("i32(3.9) = %+v, want 3 (truncating)", got)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []Pattern{
		Map(nil, F(0)),                                   // empty domain
		Map([]int{0}, F(0)),                              // zero extent
		Map([]int{4}, Index(1)),                          // index out of domain
		Fold([]int{4}, F(0), F(1), Sub),                  // non-associative combine
		Fold([]int{4}, I(0), F(1), Add),                  // zero/body type mismatch
		Filter([]int{4}, F(1), F(0)),                     // non-bool condition
		HashReduce([]int{4}, F(0), []Expr{F(1)}, Add, 0), // non-i32 key
		HashReduce([]int{4}, I(0), nil, Add, 0),          // no values
		HashReduce([]int{4}, I(0), []Expr{F(1)}, Div, 0), // non-associative
	}
	for i, p := range cases {
		if err := Validate(p); err == nil {
			t.Errorf("case %d (%s): expected validation error", i, p.Name())
		}
	}
}

func TestCountOps(t *testing.T) {
	// mul + add + mux = 3 FU ops; reads/consts/indices are free.
	a := NewF32("a", 8)
	e := Select(Ge2(Index(0), I(4)), Add2(Mul2(At(a, Index(0)), F(2)), F(1)), F(0))
	// ops: mux, ge, add, mul = 4
	if got := CountOps(e); got != 4 {
		t.Errorf("CountOps = %d, want 4", got)
	}
}

func TestFoldAssociativityProperty(t *testing.T) {
	// Property: for associative integer ops, sequential fold equals a
	// two-way split fold (the invariant the hardware reduction tree relies
	// on, Section 3.1).
	f := func(xs []int32) bool {
		if len(xs) < 2 {
			return true
		}
		for _, op := range []Op{Add, Min, Max} {
			seq := VI(xs[0])
			for _, x := range xs[1:] {
				seq = EvalOp(op, seq, VI(x))
			}
			mid := len(xs) / 2
			l := VI(xs[0])
			for _, x := range xs[1:mid] {
				l = EvalOp(op, l, VI(x))
			}
			r := VI(xs[mid])
			for _, x := range xs[mid+1:] {
				r = EvalOp(op, r, VI(x))
			}
			if EvalOp(op, l, r).I != seq.I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapOutputLenEqualsDomainProperty(t *testing.T) {
	// Property (Table 1): |Map output| == |domain|.
	f := func(a, b uint8) bool {
		d0, d1 := int(a%16)+1, int(b%16)+1
		out, err := Run(Map([]int{d0, d1}, Add2(Index(0), Index(1))))
		return err == nil && len(out) == d0*d1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterSubsetOfMapProperty(t *testing.T) {
	// Property: |FlatMap(filter) output| <= |domain|.
	f := func(n uint8, threshold int32) bool {
		d := int(n%64) + 1
		p := Filter([]int{d}, Lt2(Index(0), I(threshold)), Index(0))
		out, err := Run(p)
		return err == nil && len(out) <= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatRoundTripsStructure(t *testing.T) {
	a := NewF32("a", 8)
	e := Add2(Mul2(At(a, Index(0)), F(2)), F(1))
	want := "add(mul(a[i0], 2), 1)"
	if got := Format(e); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

func TestFormatPattern(t *testing.T) {
	p := Fold([]int{128}, F(0), Mul2(Index(0), Index(0)), Add)
	got := FormatPattern(p)
	if got != "Fold(128) combine=add body=mul(i0, i0)" {
		t.Errorf("FormatPattern = %q", got)
	}
}

func TestCollectionBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range index")
		}
	}()
	c := NewF32("c", 2, 2)
	c.F32At(2, 0)
}

func TestCollectionLayoutRowMajor(t *testing.T) {
	c := NewF32("c", 2, 3)
	c.SetF32(42, 1, 2)
	if c.F32Data()[1*3+2] != 42 {
		t.Error("collection is not row-major")
	}
}
