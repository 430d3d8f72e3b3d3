package workloads

import (
	"fmt"
	"math"

	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

// InnerProduct streams two vectors through a multiply-accumulate pipeline
// (Table 4: 768,000,000 float32, scaled here to 2^18).
type InnerProduct struct {
	N, Tile, Par int

	data  [2][]float32
	total *dhdl.Reg
	want  float64
}

// NewInnerProduct returns the benchmark at simulation scale.
func NewInnerProduct() *InnerProduct { return &InnerProduct{N: 1 << 18, Tile: 1024, Par: 8} }

func (w *InnerProduct) Name() string { return "InnerProduct" }

func (w *InnerProduct) ScaleNote() string {
	return fmt.Sprintf("paper 768,000,000 elements; simulated %d", w.N)
}

func (w *InnerProduct) Program() (*dhdl.Program, error) {
	// The benchmark is fold(a zip b)(+ of *); origins carry that source-level
	// shape so profiles and fit reports speak pattern, not unit, vocabulary.
	b := dhdl.NewBuilder("innerproduct", dhdl.Sequential)
	b.SetOrigin("Fold/load:a")
	a := b.DRAMF32("a", w.N)
	ta := b.SRAM("ta", pattern.F32, w.Tile)
	b.SetOrigin("Fold/load:b")
	bb := b.DRAMF32("b", w.N)
	tb := b.SRAM("tb", pattern.F32, w.Tile)
	b.SetOrigin("Fold/F")
	partial := b.Reg("partial", pattern.VF(0))
	b.SetOrigin("Fold/combine")
	total := b.Reg("total", pattern.VF(0))
	w.total = total

	b.SetOrigin("Fold/tiles")
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStepPar(0, w.N, w.Tile, w.Par)}, func(ix []dhdl.Expr) {
		b.SetOrigin("Fold/load:a")
		b.Load("loadA", a, ix[0], ta, w.Tile)
		b.SetOrigin("Fold/load:b")
		b.Load("loadB", bb, ix[0], tb, w.Tile)
		b.SetOrigin("Fold/F")
		b.Compute("mac", []dhdl.Counter{dhdl.CPar(w.Tile, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(partial, pattern.Add,
				dhdl.Mul(dhdl.Ld(ta, jx[0]), dhdl.Ld(tb, jx[0])))}
		})
		b.SetOrigin("Fold/combine")
		b.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(total, dhdl.Add(dhdl.Rd(total), dhdl.Rd(partial)))}
		})
	})
	return b.Build()
}

func (w *InnerProduct) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	r := newRNG(0xA11CE)
	w.want = 0
	w.data[0] = make([]float32, w.N)
	w.data[1] = make([]float32, w.N)
	for i := 0; i < w.N; i++ {
		w.data[0][i] = r.float() - 0.5
		w.data[1][i] = r.float() - 0.5
		w.want += float64(w.data[0][i]) * float64(w.data[1][i])
	}
	return bind(p, pattern.FromF32("a", w.data[0]), pattern.FromF32("b", w.data[1]))
}

func (w *InnerProduct) Check(st *dhdl.State) error {
	got := float64(st.RegValue(w.total).F)
	if !almostEq(got, w.want, 1e-2) {
		return fmt.Errorf("innerproduct: got %g, want %g", got, w.want)
	}
	return nil
}

func (w *InnerProduct) Profile() Profile {
	return Profile{
		Flops:         2 * float64(w.N),
		DenseBytes:    8 * float64(w.N),
		OpsPerLane:    2,
		FPGALogicUtil: 0.243, FPGAMemUtil: 0.335,
		PaperSpeedup: 1.4, PaperPerfWatt: 1.6,
	}
}

// OuterProduct computes c[i,j] = a[i]*b[j] tile by tile; output traffic
// dominates (Table 4: 76,800 x 76,800, scaled to 2048 x 2048).
type OuterProduct struct {
	N, Tile int

	a, bv, c []float32
	want     []float32
}

// NewOuterProduct returns the benchmark at simulation scale.
func NewOuterProduct() *OuterProduct { return &OuterProduct{N: 2048, Tile: 128} }

func (w *OuterProduct) Name() string { return "OuterProduct" }

func (w *OuterProduct) ScaleNote() string {
	return fmt.Sprintf("paper 76,800 x 76,800; simulated %d x %d", w.N, w.N)
}

func (w *OuterProduct) Program() (*dhdl.Program, error) {
	n, t := w.N, w.Tile
	// map2d(a, b)(*) with an explicit tiled store: origins follow the
	// two-level Map the loop nest lowers from.
	b := dhdl.NewBuilder("outerproduct", dhdl.Sequential)
	b.SetOrigin("Map/load:a")
	a := b.DRAMF32("a", n)
	ta := b.SRAM("ta", pattern.F32, t)
	b.SetOrigin("Map/load:b")
	bb := b.DRAMF32("b", n)
	tb := b.SRAM("tb", pattern.F32, t)
	b.SetOrigin("Map/store:c")
	c := b.DRAMF32("c", n, n)
	b.SetOrigin("Map/F")
	tc := b.SRAM("tc", pattern.F32, t*t)

	b.SetOrigin("Map/rows")
	b.Pipe("rows", []dhdl.Counter{dhdl.CStep(0, n, t)}, func(ix []dhdl.Expr) {
		b.SetOrigin("Map/load:a")
		b.Load("loadA", a, ix[0], ta, t)
		b.SetOrigin("Map/cols")
		b.Pipe("cols", []dhdl.Counter{dhdl.CStepPar(0, n, t, 2)}, func(jx []dhdl.Expr) {
			b.SetOrigin("Map/load:b")
			b.Load("loadB", bb, jx[0], tb, t)
			b.SetOrigin("Map/F")
			b.Compute("op", []dhdl.Counter{dhdl.C(t), dhdl.CPar(t, 16)}, func(kx []dhdl.Expr) []*dhdl.Assign {
				val := dhdl.Mul(dhdl.Ld(ta, kx[0]), dhdl.Ld(tb, kx[1]))
				addr := dhdl.Add(dhdl.Mul(kx[0], dhdl.CI(int32(t))), kx[1])
				return []*dhdl.Assign{dhdl.StoreAt(tc, addr, val)}
			})
			// Store the t x t tile row by row into the output matrix.
			b.SetOrigin("Map/store:c")
			b.StoreTiled("storeC", []dhdl.Counter{dhdl.C(t)}, c, tc, t, func(rx []dhdl.Expr) (dhdl.Expr, dhdl.Expr) {
				off := dhdl.Add(dhdl.Mul(dhdl.Add(ix[0], rx[0]), dhdl.CI(int32(n))), jx[0])
				sramOff := dhdl.Mul(rx[0], dhdl.CI(int32(t)))
				return off, sramOff
			})
		})
	})
	return b.Build()
}

func (w *OuterProduct) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n := w.N
	r := newRNG(0x0F7E12)
	w.a = make([]float32, n)
	w.bv = make([]float32, n)
	for i := 0; i < n; i++ {
		w.a[i] = r.float() - 0.5
		w.bv[i] = r.float() - 0.5
	}
	w.c = make([]float32, n*n)
	w.want = make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.want[i*n+j] = w.a[i] * w.bv[j]
		}
	}
	return bind(p, pattern.FromF32("a", w.a), pattern.FromF32("b", w.bv), pattern.FromF32("c", w.c))
}

func (w *OuterProduct) Check(st *dhdl.State) error {
	return checkF32Slice("outerproduct.c", w.c, w.want, 1e-5)
}

func (w *OuterProduct) Profile() Profile {
	n := float64(w.N)
	return Profile{
		Flops:         n * n,
		DenseBytes:    4 * (n*n + 2*n*float64(w.N/w.Tile)),
		WriteBytes:    4 * n * n,
		OpsPerLane:    1,
		FPGALogicUtil: 0.382, FPGAMemUtil: 0.714,
		PaperSpeedup: 6.7, PaperPerfWatt: 6.1,
	}
}

// TPCHQ6 is the TPC-H Query 6 filter-reduce: revenue = sum of
// price*discount over rows passing date/discount/quantity predicates
// (Table 4: 960,000,000 entries int32/float32, scaled to 2^18).
type TPCHQ6 struct {
	N, Tile, Par int

	dates, qtys       []int32
	prices, discounts []float32
	revenue           *dhdl.Reg
	want              float64
}

// NewTPCHQ6 returns the benchmark at simulation scale.
func NewTPCHQ6() *TPCHQ6 { return &TPCHQ6{N: 1 << 18, Tile: 1024, Par: 4} }

func (w *TPCHQ6) Name() string { return "TPCHQ6" }

func (w *TPCHQ6) ScaleNote() string {
	return fmt.Sprintf("paper 960,000,000 entries; simulated %d", w.N)
}

const (
	q6DateLo = 19940101
	q6DateHi = 19950101
	q6DiscLo = 0.05
	q6DiscHi = 0.07
	q6QtyMax = 24
)

func (w *TPCHQ6) Program() (*dhdl.Program, error) {
	n, t := w.N, w.Tile
	// Q6 is fold(filter(lineitem, predicates))(+ of price*disc); origins name
	// the Fold's per-column loads, the filtering body, and the combine.
	b := dhdl.NewBuilder("tpchq6", dhdl.Sequential)
	b.SetOrigin("Fold/load:date")
	dDate := b.DRAMI32("date", n)
	tDate := b.SRAM("tdate", pattern.I32, t)
	b.SetOrigin("Fold/load:qty")
	dQty := b.DRAMI32("qty", n)
	tQty := b.SRAM("tqty", pattern.I32, t)
	b.SetOrigin("Fold/load:price")
	dPrice := b.DRAMF32("price", n)
	tPrice := b.SRAM("tprice", pattern.F32, t)
	b.SetOrigin("Fold/load:disc")
	dDisc := b.DRAMF32("disc", n)
	tDisc := b.SRAM("tdisc", pattern.F32, t)
	b.SetOrigin("Fold/F")
	partial := b.Reg("partial", pattern.VF(0))
	b.SetOrigin("Fold/combine")
	revenue := b.Reg("revenue", pattern.VF(0))
	w.revenue = revenue

	b.SetOrigin("Fold/tiles")
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStepPar(0, n, t, w.Par)}, func(ix []dhdl.Expr) {
		b.SetOrigin("Fold/load:date")
		b.Load("ldDate", dDate, ix[0], tDate, t)
		b.SetOrigin("Fold/load:qty")
		b.Load("ldQty", dQty, ix[0], tQty, t)
		b.SetOrigin("Fold/load:price")
		b.Load("ldPrice", dPrice, ix[0], tPrice, t)
		b.SetOrigin("Fold/load:disc")
		b.Load("ldDisc", dDisc, ix[0], tDisc, t)
		b.SetOrigin("Fold/F")
		b.Compute("filterSum", []dhdl.Counter{dhdl.CPar(t, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			date := dhdl.Ld(tDate, jx[0])
			qty := dhdl.Ld(tQty, jx[0])
			price := dhdl.Ld(tPrice, jx[0])
			disc := dhdl.Ld(tDisc, jx[0])
			cond := dhdl.And(
				dhdl.And(dhdl.Ge(date, dhdl.CI(q6DateLo)), dhdl.Lt(date, dhdl.CI(q6DateHi))),
				dhdl.And(
					dhdl.And(dhdl.Ge(disc, dhdl.CF(q6DiscLo)), dhdl.Le(disc, dhdl.CF(q6DiscHi))),
					dhdl.Lt(qty, dhdl.CI(q6QtyMax))))
			return []*dhdl.Assign{dhdl.AccumIf(partial, pattern.Add, cond, dhdl.Mul(price, disc))}
		})
		b.SetOrigin("Fold/combine")
		b.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(revenue, dhdl.Add(dhdl.Rd(revenue), dhdl.Rd(partial)))}
		})
	})
	return b.Build()
}

func (w *TPCHQ6) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n := w.N
	r := newRNG(0x79C6)
	w.dates = make([]int32, n)
	w.qtys = make([]int32, n)
	w.prices = make([]float32, n)
	w.discounts = make([]float32, n)
	w.want = 0
	for i := 0; i < n; i++ {
		w.dates[i] = int32(19930101 + r.intn(30000))
		w.qtys[i] = int32(r.intn(50))
		w.prices[i] = r.float() * 1000
		w.discounts[i] = float32(r.intn(11)) / 100
		if w.dates[i] >= q6DateLo && w.dates[i] < q6DateHi &&
			w.discounts[i] >= q6DiscLo && w.discounts[i] <= q6DiscHi &&
			w.qtys[i] < q6QtyMax {
			w.want += float64(w.prices[i]) * float64(w.discounts[i])
		}
	}
	return bind(p, pattern.FromI32("date", w.dates), pattern.FromI32("qty", w.qtys),
		pattern.FromF32("price", w.prices), pattern.FromF32("disc", w.discounts))
}

func (w *TPCHQ6) Check(st *dhdl.State) error {
	got := float64(st.RegValue(w.revenue).F)
	if !almostEq(got, w.want, 1e-2) {
		return fmt.Errorf("tpchq6: revenue %g, want %g", got, w.want)
	}
	return nil
}

func (w *TPCHQ6) Profile() Profile {
	return Profile{
		Flops:         10 * float64(w.N),
		DenseBytes:    16 * float64(w.N),
		OpsPerLane:    10,
		FPGALogicUtil: 0.243, FPGAMemUtil: 0.334,
		PaperSpeedup: 1.4, PaperPerfWatt: 1.5,
	}
}

// BlackScholes prices call options with a deep floating-point pipeline
// (Table 4: 96,000,000 entries, scaled to 2^15).
type BlackScholes struct {
	N, Tile, Par int

	s, k, t, r, v []float32
	out           []float32
	want          []float32
}

// NewBlackScholes returns the benchmark at simulation scale.
func NewBlackScholes() *BlackScholes { return &BlackScholes{N: 1 << 15, Tile: 1024, Par: 2} }

func (w *BlackScholes) Name() string { return "BlackScholes" }

func (w *BlackScholes) ScaleNote() string {
	return fmt.Sprintf("paper 96,000,000 entries; simulated %d", w.N)
}

// cndfExpr builds the Abramowitz-Stegun approximation of the cumulative
// normal distribution as a dataflow expression over d.
func cndfExpr(d dhdl.Expr) dhdl.Expr {
	ad := dhdl.Abs(d)
	k := dhdl.Div(dhdl.CF(1), dhdl.Add(dhdl.CF(1), dhdl.Mul(dhdl.CF(0.2316419), ad)))
	// poly = k*(a1 + k*(a2 + k*(a3 + k*(a4 + k*a5))))
	poly := dhdl.Mul(k, dhdl.CF(1.330274429))
	poly = dhdl.Mul(k, dhdl.Add(dhdl.CF(-1.821255978), poly))
	poly = dhdl.Mul(k, dhdl.Add(dhdl.CF(1.781477937), poly))
	poly = dhdl.Mul(k, dhdl.Add(dhdl.CF(-0.356563782), poly))
	poly = dhdl.Mul(k, dhdl.Add(dhdl.CF(0.319381530), poly))
	pdf := dhdl.Mul(dhdl.CF(0.39894228), dhdl.Exp(dhdl.Mul(dhdl.CF(-0.5), dhdl.Mul(d, d))))
	oneMinus := dhdl.Sub(dhdl.CF(1), dhdl.Mul(pdf, poly))
	// N(d) = 1 - pdf*poly for d >= 0, else pdf*poly.
	return dhdl.Sel(dhdl.Ge(d, dhdl.CF(0)), oneMinus, dhdl.Mul(pdf, poly))
}

func cndfHost(d float64) float64 {
	ad := math.Abs(d)
	k := 1 / (1 + 0.2316419*ad)
	poly := k * 1.330274429
	poly = k * (-1.821255978 + poly)
	poly = k * (1.781477937 + poly)
	poly = k * (-0.356563782 + poly)
	poly = k * (0.319381530 + poly)
	pdf := 0.39894228 * math.Exp(-0.5*d*d)
	if d >= 0 {
		return 1 - pdf*poly
	}
	return pdf * poly
}

func (w *BlackScholes) Program() (*dhdl.Program, error) {
	n, t := w.N, w.Tile
	// map(options)(price): one Map whose body is the deep Black-Scholes
	// pipeline; origins name the per-column loads, the body, and the store.
	b := dhdl.NewBuilder("blackscholes", dhdl.Sequential)
	b.SetOrigin("Map/load:S")
	dS := b.DRAMF32("S", n)
	tS := b.SRAM("tS", pattern.F32, t)
	b.SetOrigin("Map/load:K")
	dK := b.DRAMF32("K", n)
	tK := b.SRAM("tK", pattern.F32, t)
	b.SetOrigin("Map/load:T")
	dT := b.DRAMF32("T", n)
	tT := b.SRAM("tT", pattern.F32, t)
	b.SetOrigin("Map/load:r")
	dR := b.DRAMF32("r", n)
	tR := b.SRAM("tR", pattern.F32, t)
	b.SetOrigin("Map/load:v")
	dV := b.DRAMF32("v", n)
	tV := b.SRAM("tV", pattern.F32, t)
	b.SetOrigin("Map/store:call")
	dOut := b.DRAMF32("call", n)
	b.SetOrigin("Map/F")
	tOut := b.SRAM("tOut", pattern.F32, t)

	b.SetOrigin("Map/tiles")
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStepPar(0, n, t, w.Par)}, func(ix []dhdl.Expr) {
		b.SetOrigin("Map/load:S")
		b.Load("ldS", dS, ix[0], tS, t)
		b.SetOrigin("Map/load:K")
		b.Load("ldK", dK, ix[0], tK, t)
		b.SetOrigin("Map/load:T")
		b.Load("ldT", dT, ix[0], tT, t)
		b.SetOrigin("Map/load:r")
		b.Load("ldR", dR, ix[0], tR, t)
		b.SetOrigin("Map/load:v")
		b.Load("ldV", dV, ix[0], tV, t)
		b.SetOrigin("Map/F")
		b.Compute("price", []dhdl.Counter{dhdl.CPar(t, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			s := dhdl.Ld(tS, jx[0])
			k := dhdl.Ld(tK, jx[0])
			tt := dhdl.Ld(tT, jx[0])
			r := dhdl.Ld(tR, jx[0])
			v := dhdl.Ld(tV, jx[0])
			sqrtT := dhdl.Sqrt(tt)
			vSqrtT := dhdl.Mul(v, sqrtT)
			d1 := dhdl.Div(
				dhdl.Add(dhdl.Log(dhdl.Div(s, k)),
					dhdl.Mul(dhdl.Add(r, dhdl.Mul(dhdl.CF(0.5), dhdl.Mul(v, v))), tt)),
				vSqrtT)
			d2 := dhdl.Sub(d1, vSqrtT)
			call := dhdl.Sub(
				dhdl.Mul(s, cndfExpr(d1)),
				dhdl.Mul(dhdl.Mul(k, dhdl.Exp(dhdl.Neg(dhdl.Mul(r, tt)))), cndfExpr(d2)))
			return []*dhdl.Assign{dhdl.StoreAt(tOut, jx[0], call)}
		})
		b.SetOrigin("Map/store:call")
		b.Store("stOut", dOut, ix[0], tOut, t)
	})
	return b.Build()
}

func (w *BlackScholes) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n := w.N
	rg := newRNG(0xB5C401E5)
	w.s = make([]float32, n)
	w.k = make([]float32, n)
	w.t = make([]float32, n)
	w.r = make([]float32, n)
	w.v = make([]float32, n)
	w.out = make([]float32, n)
	w.want = make([]float32, n)
	for i := 0; i < n; i++ {
		w.s[i] = 10 + 90*rg.float()
		w.k[i] = 10 + 90*rg.float()
		w.t[i] = 0.2 + 1.8*rg.float()
		w.r[i] = 0.01 + 0.05*rg.float()
		w.v[i] = 0.1 + 0.4*rg.float()
		s, k, tt, r, v := float64(w.s[i]), float64(w.k[i]), float64(w.t[i]), float64(w.r[i]), float64(w.v[i])
		vSqrtT := v * math.Sqrt(tt)
		d1 := (math.Log(s/k) + (r+0.5*v*v)*tt) / vSqrtT
		d2 := d1 - vSqrtT
		w.want[i] = float32(s*cndfHost(d1) - k*math.Exp(-r*tt)*cndfHost(d2))
	}
	return bind(p, pattern.FromF32("S", w.s), pattern.FromF32("K", w.k),
		pattern.FromF32("T", w.t), pattern.FromF32("r", w.r),
		pattern.FromF32("v", w.v), pattern.FromF32("call", w.out))
}

func (w *BlackScholes) Check(st *dhdl.State) error {
	return checkF32Slice("blackscholes.call", w.out, w.want, 5e-3)
}

func (w *BlackScholes) Profile() Profile {
	return Profile{
		Flops:           60 * float64(w.N),
		DenseBytes:      24 * float64(w.N),
		OpsPerLane:      60,
		HeavyOpsPerLane: 10, // exp/log/sqrt/divide chains
		FPGALogicUtil:   0.689, FPGAMemUtil: 1.0,
		PaperSpeedup: 5.1, PaperPerfWatt: 5.8,
	}
}
