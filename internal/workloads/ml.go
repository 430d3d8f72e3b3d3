package workloads

import (
	"fmt"
	"math"

	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

// GEMM is blocked single-precision matrix multiplication with on-chip
// accumulation (Table 4: 47x7680 * 7680x3840, scaled to 128x128x128).
type GEMM struct {
	M, N, P    int
	TM, TN, TP int

	a, bm, c []float32
	want     []float32
}

// NewGEMM returns the benchmark at simulation scale.
func NewGEMM() *GEMM {
	return &GEMM{M: 256, N: 256, P: 256, TM: 32, TN: 64, TP: 32}
}

func (w *GEMM) Name() string { return "GEMM" }

func (w *GEMM) ScaleNote() string {
	return fmt.Sprintf("paper 47x7680 * 7680x3840; simulated %dx%d * %dx%d", w.M, w.N, w.N, w.P)
}

func (w *GEMM) Program() (*dhdl.Program, error) {
	M, N, P, TM, TN, TP := w.M, w.N, w.P, w.TM, w.TN, w.TP
	b := dhdl.NewBuilder("gemm", dhdl.Sequential)
	dA := b.DRAMF32("A", M, N)
	dB := b.DRAMF32("B", N, P)
	dC := b.DRAMF32("C", M, P)
	tA := b.SRAM("tA", pattern.F32, TM*TN)
	tB := b.SRAM("tB", pattern.F32, TN*TP)
	tC := b.SRAM("tC", pattern.F32, TM*TP)

	b.Pipe("iTiles", []dhdl.Counter{dhdl.CStepPar(0, M, TM, 2)}, func(ix []dhdl.Expr) {
		b.Pipe("jTiles", []dhdl.Counter{dhdl.CStepPar(0, P, TP, 2)}, func(jx []dhdl.Expr) {
			b.Compute("zeroC", []dhdl.Counter{dhdl.CPar(TM*TP, 16)}, func(zx []dhdl.Expr) []*dhdl.Assign {
				return []*dhdl.Assign{dhdl.StoreAt(tC, zx[0], dhdl.CF(0))}
			})
			// Accumulation over k tiles is loop-carried: sequential.
			b.Seq("kTiles", []dhdl.Counter{dhdl.CStep(0, N, TN)}, func(kx []dhdl.Expr) {
				b.LoadTiled("loadA", []dhdl.Counter{dhdl.C(TM)}, dA, tA, TN, func(rx []dhdl.Expr) (dhdl.Expr, dhdl.Expr) {
					off := dhdl.Add(dhdl.Mul(dhdl.Add(ix[0], rx[0]), dhdl.CI(int32(N))), kx[0])
					return off, dhdl.Mul(rx[0], dhdl.CI(int32(TN)))
				})
				b.LoadTiled("loadB", []dhdl.Counter{dhdl.C(TN)}, dB, tB, TP, func(rx []dhdl.Expr) (dhdl.Expr, dhdl.Expr) {
					off := dhdl.Add(dhdl.Mul(dhdl.Add(kx[0], rx[0]), dhdl.CI(int32(P))), jx[0])
					return off, dhdl.Mul(rx[0], dhdl.CI(int32(TP)))
				})
				// Vectorized SAXPY: tC[r,c] += tA[r,kk] * tB[kk,c], lanes
				// across c.
				b.Compute("mm", []dhdl.Counter{dhdl.CPar(TM, 2), dhdl.C(TN), dhdl.CPar(TP, 16)}, func(mx []dhdl.Expr) []*dhdl.Assign {
					r, kk, c := mx[0], mx[1], mx[2]
					val := dhdl.Mul(
						dhdl.Ld(tA, dhdl.Add(dhdl.Mul(r, dhdl.CI(int32(TN))), kk)),
						dhdl.Ld(tB, dhdl.Add(dhdl.Mul(kk, dhdl.CI(int32(TP))), c)))
					addr := dhdl.Add(dhdl.Mul(r, dhdl.CI(int32(TP))), c)
					return []*dhdl.Assign{dhdl.AccumAt(tC, pattern.Add, addr, val)}
				})
			})
			b.StoreTiled("storeC", []dhdl.Counter{dhdl.C(TM)}, dC, tC, TP, func(rx []dhdl.Expr) (dhdl.Expr, dhdl.Expr) {
				off := dhdl.Add(dhdl.Mul(dhdl.Add(ix[0], rx[0]), dhdl.CI(int32(P))), jx[0])
				return off, dhdl.Mul(rx[0], dhdl.CI(int32(TP)))
			})
		})
	})
	return b.Build()
}

func (w *GEMM) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	M, N, P := w.M, w.N, w.P
	r := newRNG(0x6E44)
	w.a = make([]float32, M*N)
	w.bm = make([]float32, N*P)
	w.c = make([]float32, M*P)
	for i := range w.a {
		w.a[i] = r.float() - 0.5
	}
	for i := range w.bm {
		w.bm[i] = r.float() - 0.5
	}
	// i-k-j order walks rows of B. Each element still sums over k in
	// ascending order from 0, so every word equals its dot product's.
	w.want = make([]float32, M*P)
	for i := 0; i < M; i++ {
		row := w.want[i*P : (i+1)*P]
		for k, aik := range w.a[i*N : (i+1)*N] {
			for j, bkj := range w.bm[k*P : (k+1)*P] {
				row[j] += aik * bkj
			}
		}
	}
	return bind(p, pattern.FromF32("A", w.a), pattern.FromF32("B", w.bm), pattern.FromF32("C", w.c))
}

func (w *GEMM) Check(st *dhdl.State) error {
	return checkF32Slice("gemm.C", w.c, w.want, 1e-3)
}

func (w *GEMM) Profile() Profile {
	m, n, p := float64(w.M), float64(w.N), float64(w.P)
	return Profile{
		Flops:         2 * m * n * p,
		DenseBytes:    4 * (m*n*(p/float64(w.TP)) + n*p*(m/float64(w.TM)) + m*p),
		OpsPerLane:    2,
		FPGALogicUtil: 0.404, FPGAMemUtil: 0.948,
		PaperSpeedup: 33.0, PaperPerfWatt: 24.4,
	}
}

// GDA is Gaussian discriminant analysis: per-class means plus a shared
// covariance matrix (Table 4: 3,840,000 points x 96 dims, scaled to
// 2048 x 32).
type GDA struct {
	N, D, TP int

	x      []float32
	y      []int32
	muOut  []float32
	sigOut []float32
	wantMu []float32
	wantSg []float32
}

// NewGDA returns the benchmark at simulation scale.
func NewGDA() *GDA { return &GDA{N: 4096, D: 32, TP: 256} }

func (w *GDA) Name() string { return "GDA" }

func (w *GDA) ScaleNote() string {
	return fmt.Sprintf("paper 3,840,000 points x 96 dims; simulated %d x %d", w.N, w.D)
}

func (w *GDA) Program() (*dhdl.Program, error) {
	n, d, tp := w.N, w.D, w.TP
	b := dhdl.NewBuilder("gda", dhdl.Sequential)
	dX := b.DRAMF32("x", n, d)
	dY := b.DRAMI32("y", n)
	dMu := b.DRAMF32("mu", 2, d)
	dSig := b.DRAMF32("sigma", d, d)
	tX := b.SRAM("tx", pattern.F32, tp*d)
	tY := b.SRAM("ty", pattern.I32, tp)
	sums := b.SRAM("sums", pattern.F32, 2*d)
	counts := b.SRAM("counts", pattern.F32, 2)
	mu := b.SRAMBanked("mu", pattern.F32, 2*d, dhdl.Duplication)
	sigma := b.SRAM("sigma", pattern.F32, d*d)

	b.Pipe("p1", []dhdl.Counter{dhdl.CStepPar(0, n, tp, 2)}, func(ix []dhdl.Expr) {
		b.Load("ldX1", dX, dhdl.Mul(ix[0], dhdl.CI(int32(d))), tX, tp*d)
		b.Load("ldY1", dY, ix[0], tY, tp)
		b.Compute("classSums", []dhdl.Counter{dhdl.C(tp), dhdl.CPar(d, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			i, j := jx[0], jx[1]
			cls := dhdl.Ld(tY, i)
			addr := dhdl.Add(dhdl.Mul(cls, dhdl.CI(int32(d))), j)
			val := dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), j))
			return []*dhdl.Assign{dhdl.AccumAt(sums, pattern.Add, addr, val)}
		})
		b.Compute("classCounts", []dhdl.Counter{dhdl.C(tp)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.AccumAt(counts, pattern.Add, dhdl.Ld(tY, jx[0]), dhdl.CF(1))}
		})
	})
	b.Compute("means", []dhdl.Counter{dhdl.C(2), dhdl.CPar(d, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
		c, j := jx[0], jx[1]
		addr := dhdl.Add(dhdl.Mul(c, dhdl.CI(int32(d))), j)
		val := dhdl.Div(dhdl.Ld(sums, addr), dhdl.Max(dhdl.Ld(counts, c), dhdl.CF(1)))
		return []*dhdl.Assign{dhdl.StoreAt(mu, addr, val)}
	})
	b.Pipe("p2", []dhdl.Counter{dhdl.CStepPar(0, n, tp, 2)}, func(ix []dhdl.Expr) {
		b.Load("ldX2", dX, dhdl.Mul(ix[0], dhdl.CI(int32(d))), tX, tp*d)
		b.Load("ldY2", dY, ix[0], tY, tp)
		b.Compute("cov", []dhdl.Counter{dhdl.CPar(tp, 4), dhdl.C(d), dhdl.CPar(d, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			i, j, k := jx[0], jx[1], jx[2]
			cls := dhdl.Ld(tY, i)
			xj := dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), j))
			xk := dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), k))
			muj := dhdl.Ld(mu, dhdl.Add(dhdl.Mul(cls, dhdl.CI(int32(d))), j))
			muk := dhdl.Ld(mu, dhdl.Add(dhdl.Mul(cls, dhdl.CI(int32(d))), k))
			val := dhdl.Mul(dhdl.Sub(xj, muj), dhdl.Sub(xk, muk))
			addr := dhdl.Add(dhdl.Mul(j, dhdl.CI(int32(d))), k)
			return []*dhdl.Assign{dhdl.AccumAt(sigma, pattern.Add, addr, val)}
		})
	})
	b.Store("stMu", dMu, dhdl.CI(0), mu, 2*d)
	b.Store("stSig", dSig, dhdl.CI(0), sigma, d*d)
	return b.Build()
}

func (w *GDA) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n, d := w.N, w.D
	r := newRNG(0x6DA5)
	w.x = make([]float32, n*d)
	w.y = make([]int32, n)
	for i := 0; i < n; i++ {
		w.y[i] = int32(r.intn(2))
		for j := 0; j < d; j++ {
			w.x[i*d+j] = r.float() + float32(w.y[i])
		}
	}
	w.muOut = make([]float32, 2*d)
	w.sigOut = make([]float32, d*d)
	// Golden reference.
	w.wantMu = make([]float32, 2*d)
	cnt := [2]float32{}
	for i := 0; i < n; i++ {
		cnt[w.y[i]]++
		for j := 0; j < d; j++ {
			w.wantMu[int(w.y[i])*d+j] += w.x[i*d+j]
		}
	}
	for c := 0; c < 2; c++ {
		for j := 0; j < d; j++ {
			w.wantMu[c*d+j] /= cnt[c]
		}
	}
	// Each point's deviation from its class mean is computed once; every
	// word takes the same float32 operations in the same order as
	// (x[i,j]-mu[c,j])·(x[i,k]-mu[c,k]) summed over i.
	w.wantSg = make([]float32, d*d)
	dev := make([]float32, d)
	for i := 0; i < n; i++ {
		c := int(w.y[i])
		for j := range dev {
			dev[j] = w.x[i*d+j] - w.wantMu[c*d+j]
		}
		for j, dj := range dev {
			row := w.wantSg[j*d : (j+1)*d]
			for k, dk := range dev {
				row[k] += dj * dk
			}
		}
	}
	return bind(p, pattern.FromF32("x", w.x), pattern.FromI32("y", w.y),
		pattern.FromF32("mu", w.muOut), pattern.FromF32("sigma", w.sigOut))
}

func (w *GDA) Check(st *dhdl.State) error {
	if err := checkF32Slice("gda.mu", w.muOut, w.wantMu, 1e-3); err != nil {
		return err
	}
	return checkF32Slice("gda.sigma", w.sigOut, w.wantSg, 1e-2)
}

func (w *GDA) Profile() Profile {
	n, d := float64(w.N), float64(w.D)
	return Profile{
		Flops:         3*n*d*d + 3*n*d,
		DenseBytes:    4 * (2*n*d + n + d*d),
		OpsPerLane:    3,
		FPGALogicUtil: 0.536, FPGAMemUtil: 0.968,
		PaperSpeedup: 40.0, PaperPerfWatt: 25.9,
	}
}

// LogReg is batch-gradient logistic regression with a loop-carried weight
// vector (Table 4: 5 iters, 1536 points x 384 dims, scaled to 1024 x 32).
type LogReg struct {
	Iters, N, D int

	x    []float32
	y    []float32
	wOut []float32
	want []float32
}

// NewLogReg returns the benchmark at simulation scale.
func NewLogReg() *LogReg { return &LogReg{Iters: 5, N: 1024, D: 32} }

func (w *LogReg) Name() string { return "LogReg" }

func (w *LogReg) ScaleNote() string {
	return fmt.Sprintf("paper 5 iters, 1536 x 384; simulated %d iters, %d x %d", w.Iters, w.N, w.D)
}

const logRegLR = 0.1

func (w *LogReg) Program() (*dhdl.Program, error) {
	n, d := w.N, w.D
	b := dhdl.NewBuilder("logreg", dhdl.Sequential)
	dX := b.DRAMF32("x", n, d)
	dY := b.DRAMF32("y", n)
	dW := b.DRAMF32("w", d)
	tX := b.SRAM("tx", pattern.F32, n*d)
	tY := b.SRAM("ty", pattern.F32, n)
	tw := b.SRAM("tw", pattern.F32, d)
	dots := b.SRAM("dots", pattern.F32, n)
	errs := b.SRAM("errs", pattern.F32, n)
	grad := b.SRAM("grad", pattern.F32, d)

	b.Load("ldX", dX, dhdl.CI(0), tX, n*d)
	b.Load("ldY", dY, dhdl.CI(0), tY, n)
	b.Load("ldW", dW, dhdl.CI(0), tw, d)
	b.Seq("iters", []dhdl.Counter{dhdl.C(w.Iters)}, func([]dhdl.Expr) {
		b.Compute("zeroDots", []dhdl.Counter{dhdl.CPar(n, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.StoreAt(dots, ix[0], dhdl.CF(0))}
		})
		b.Compute("dot", []dhdl.Counter{dhdl.CPar(n, 2), dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			i, j := ix[0], ix[1]
			val := dhdl.Mul(dhdl.Ld(tw, j), dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), j)))
			return []*dhdl.Assign{dhdl.AccumAt(dots, pattern.Add, i, val)}
		})
		b.Compute("err", []dhdl.Counter{dhdl.CPar(n, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			i := ix[0]
			sig := dhdl.Div(dhdl.CF(1), dhdl.Add(dhdl.CF(1), dhdl.Exp(dhdl.Neg(dhdl.Ld(dots, i)))))
			return []*dhdl.Assign{dhdl.StoreAt(errs, i, dhdl.Sub(sig, dhdl.Ld(tY, i)))}
		})
		b.Compute("zeroGrad", []dhdl.Counter{dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.StoreAt(grad, ix[0], dhdl.CF(0))}
		})
		b.Compute("grad", []dhdl.Counter{dhdl.CPar(n, 2), dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			i, j := ix[0], ix[1]
			val := dhdl.Mul(dhdl.Ld(errs, i), dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), j)))
			return []*dhdl.Assign{dhdl.AccumAt(grad, pattern.Add, j, val)}
		})
		b.Compute("update", []dhdl.Counter{dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			j := ix[0]
			nw := dhdl.Sub(dhdl.Ld(tw, j), dhdl.Mul(dhdl.CF(logRegLR/float32(n)), dhdl.Ld(grad, j)))
			return []*dhdl.Assign{dhdl.StoreAt(tw, j, nw)}
		})
	})
	b.Store("stW", dW, dhdl.CI(0), tw, d)
	return b.Build()
}

func (w *LogReg) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n, d := w.N, w.D
	r := newRNG(0x106)
	w.x = make([]float32, n*d)
	w.y = make([]float32, n)
	for i := 0; i < n; i++ {
		w.y[i] = float32(r.intn(2))
		for j := 0; j < d; j++ {
			w.x[i*d+j] = r.float() + 0.3*w.y[i]
		}
	}
	w.wOut = make([]float32, d)
	// Golden reference (float32 arithmetic to track the pipeline).
	wv := make([]float32, d)
	for it := 0; it < w.Iters; it++ {
		gradv := make([]float32, d)
		for i := 0; i < n; i++ {
			var dot float32
			for j := 0; j < d; j++ {
				dot += wv[j] * w.x[i*d+j]
			}
			sig := float32(1 / (1 + math.Exp(-float64(dot))))
			e := sig - w.y[i]
			for j := 0; j < d; j++ {
				gradv[j] += e * w.x[i*d+j]
			}
		}
		for j := 0; j < d; j++ {
			wv[j] -= logRegLR / float32(n) * gradv[j]
		}
	}
	w.want = wv
	return bind(p, pattern.FromF32("x", w.x), pattern.FromF32("y", w.y), pattern.FromF32("w", w.wOut))
}

func (w *LogReg) Check(st *dhdl.State) error {
	return checkF32Slice("logreg.w", w.wOut, w.want, 1e-2)
}

func (w *LogReg) Profile() Profile {
	n, d, it := float64(w.N), float64(w.D), float64(w.Iters)
	return Profile{
		Flops:           it * (4*n*d + 10*n),
		DenseBytes:      4 * (n*d + n + d),
		OpsPerLane:      4,
		HeavyOpsPerLane: 1, // sigmoid divide
		SeqIters:        w.Iters,
		SeqChildren:     6,
		PipeDepth:       25,
		FPGALogicUtil:   0.284, FPGAMemUtil: 0.734,
		PaperSpeedup: 11.4, PaperPerfWatt: 9.2,
	}
}

// SGD is minibatch stochastic gradient descent for linear regression; the
// weight vector is loop-carried across minibatches, making the outer loop
// inherently sequential (Table 4: 30 iters, 38,400 points x 768 dims,
// scaled to 2 epochs over 1024 x 32 with 64-point minibatches).
type SGD struct {
	Epochs, N, D, Batch int

	x    []float32
	y    []float32
	wOut []float32
	want []float32
}

// NewSGD returns the benchmark at simulation scale.
func NewSGD() *SGD { return &SGD{Epochs: 2, N: 1024, D: 32, Batch: 64} }

func (w *SGD) Name() string { return "SGD" }

func (w *SGD) ScaleNote() string {
	return fmt.Sprintf("paper 30 iters, 38,400 x 768; simulated %d epochs, %d x %d, batch %d",
		w.Epochs, w.N, w.D, w.Batch)
}

const sgdLR = 0.05

func (w *SGD) Program() (*dhdl.Program, error) {
	n, d, bsz := w.N, w.D, w.Batch
	b := dhdl.NewBuilder("sgd", dhdl.Sequential)
	dX := b.DRAMF32("x", n, d)
	dY := b.DRAMF32("y", n)
	dW := b.DRAMF32("w", d)
	tX := b.SRAM("tx", pattern.F32, bsz*d)
	tY := b.SRAM("ty", pattern.F32, bsz)
	tw := b.SRAM("tw", pattern.F32, d)
	dots := b.SRAM("dots", pattern.F32, bsz)
	grad := b.SRAM("grad", pattern.F32, d)

	b.Load("ldW", dW, dhdl.CI(0), tw, d)
	b.Seq("epochs", []dhdl.Counter{dhdl.C(w.Epochs)}, func([]dhdl.Expr) {
		b.Seq("batches", []dhdl.Counter{dhdl.CStep(0, n, bsz)}, func(bx []dhdl.Expr) {
			b.Load("ldX", dX, dhdl.Mul(bx[0], dhdl.CI(int32(d))), tX, bsz*d)
			b.Load("ldY", dY, bx[0], tY, bsz)
			b.Compute("zeroDots", []dhdl.Counter{dhdl.CPar(bsz, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
				return []*dhdl.Assign{dhdl.StoreAt(dots, ix[0], dhdl.CF(0))}
			})
			b.Compute("dot", []dhdl.Counter{dhdl.C(bsz), dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
				i, j := ix[0], ix[1]
				val := dhdl.Mul(dhdl.Ld(tw, j), dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), j)))
				return []*dhdl.Assign{dhdl.AccumAt(dots, pattern.Add, i, val)}
			})
			b.Compute("zeroGrad", []dhdl.Counter{dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
				return []*dhdl.Assign{dhdl.StoreAt(grad, ix[0], dhdl.CF(0))}
			})
			b.Compute("grad", []dhdl.Counter{dhdl.C(bsz), dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
				i, j := ix[0], ix[1]
				e := dhdl.Sub(dhdl.Ld(dots, i), dhdl.Ld(tY, i))
				val := dhdl.Mul(e, dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), j)))
				return []*dhdl.Assign{dhdl.AccumAt(grad, pattern.Add, j, val)}
			})
			b.Compute("update", []dhdl.Counter{dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
				j := ix[0]
				nw := dhdl.Sub(dhdl.Ld(tw, j), dhdl.Mul(dhdl.CF(sgdLR/float32(bsz)), dhdl.Ld(grad, j)))
				return []*dhdl.Assign{dhdl.StoreAt(tw, j, nw)}
			})
		})
	})
	b.Store("stW", dW, dhdl.CI(0), tw, d)
	return b.Build()
}

func (w *SGD) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n, d, bsz := w.N, w.D, w.Batch
	r := newRNG(0x56D)
	w.x = make([]float32, n*d)
	w.y = make([]float32, n)
	truth := make([]float32, d)
	for j := 0; j < d; j++ {
		truth[j] = r.float() - 0.5
	}
	for i := 0; i < n; i++ {
		var dot float32
		for j := 0; j < d; j++ {
			w.x[i*d+j] = r.float() - 0.5
			dot += truth[j] * w.x[i*d+j]
		}
		w.y[i] = dot + 0.01*(r.float()-0.5)
	}
	w.wOut = make([]float32, d)
	// Golden reference.
	wv := make([]float32, d)
	for e := 0; e < w.Epochs; e++ {
		for b0 := 0; b0 < n; b0 += bsz {
			gradv := make([]float32, d)
			for i := b0; i < b0+bsz; i++ {
				var dot float32
				for j := 0; j < d; j++ {
					dot += wv[j] * w.x[i*d+j]
				}
				e := dot - w.y[i]
				for j := 0; j < d; j++ {
					gradv[j] += e * w.x[i*d+j]
				}
			}
			for j := 0; j < d; j++ {
				wv[j] -= sgdLR / float32(bsz) * gradv[j]
			}
		}
	}
	w.want = wv
	return bind(p, pattern.FromF32("x", w.x), pattern.FromF32("y", w.y), pattern.FromF32("w", w.wOut))
}

func (w *SGD) Check(st *dhdl.State) error {
	return checkF32Slice("sgd.w", w.wOut, w.want, 1e-2)
}

func (w *SGD) Profile() Profile {
	n, d := float64(w.N), float64(w.D)
	it := float64(w.Epochs) * n / float64(w.Batch)
	return Profile{
		Flops:         float64(w.Epochs) * 4 * n * d,
		DenseBytes:    4 * float64(w.Epochs) * (n*d + n),
		OpsPerLane:    4,
		SeqIters:      int(it),
		SeqChildren:   6,
		PipeDepth:     25,
		FPGALogicUtil: 0.601, FPGAMemUtil: 0.582,
		PaperSpeedup: 6.7, PaperPerfWatt: 15.9,
	}
}

// Kmeans clusters points by iteratively recomputing K centroids with a
// dense HashReduce (Table 4: 50 iters, 1536 points x 96 dims K=20, scaled
// to 4 iters, 1024 x 16, K=8).
type Kmeans struct {
	Iters, N, D, K int

	x       []float32
	centOut []float32
	want    []float32
}

// NewKmeans returns the benchmark at simulation scale.
func NewKmeans() *Kmeans { return &Kmeans{Iters: 4, N: 1024, D: 16, K: 8} }

func (w *Kmeans) Name() string { return "Kmeans" }

func (w *Kmeans) ScaleNote() string {
	return fmt.Sprintf("paper 50 iters, 1536 x 96, K=20; simulated %d iters, %d x %d, K=%d",
		w.Iters, w.N, w.D, w.K)
}

func (w *Kmeans) Program() (*dhdl.Program, error) {
	n, d, k := w.N, w.D, w.K
	b := dhdl.NewBuilder("kmeans", dhdl.Sequential)
	dX := b.DRAMF32("x", n, d)
	dC := b.DRAMF32("cent", k, d)
	tX := b.SRAM("tx", pattern.F32, n*d)
	cent := b.SRAMBanked("cent", pattern.F32, k*d, dhdl.Duplication)
	dists := b.SRAM("dists", pattern.F32, n*k)
	bestD := b.SRAM("bestd", pattern.F32, n)
	bestC := b.SRAM("bestc", pattern.I32, n)
	sums := b.SRAM("sums", pattern.F32, k*d)
	counts := b.SRAM("counts", pattern.F32, k)

	b.Load("ldX", dX, dhdl.CI(0), tX, n*d)
	b.Load("ldC", dC, dhdl.CI(0), cent, k*d)
	b.Seq("iters", []dhdl.Counter{dhdl.C(w.Iters)}, func([]dhdl.Expr) {
		b.Compute("zeroDists", []dhdl.Counter{dhdl.CPar(n*k, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.StoreAt(dists, ix[0], dhdl.CF(0))}
		})
		// dists is laid out [k][n] so the argmin below reads lane-
		// consecutive addresses (stride-1 banking, no conflicts).
		b.Compute("dist", []dhdl.Counter{dhdl.CPar(n, 2), dhdl.C(k), dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			i, c, j := ix[0], ix[1], ix[2]
			diff := dhdl.Sub(
				dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), j)),
				dhdl.Ld(cent, dhdl.Add(dhdl.Mul(c, dhdl.CI(int32(d))), j)))
			addr := dhdl.Add(dhdl.Mul(c, dhdl.CI(int32(n))), i)
			return []*dhdl.Assign{dhdl.AccumAt(dists, pattern.Add, addr, dhdl.Mul(diff, diff))}
		})
		b.Compute("initBest", []dhdl.Counter{dhdl.CPar(n, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{
				dhdl.StoreAt(bestD, ix[0], dhdl.CF(math.MaxFloat32)),
				dhdl.StoreAt(bestC, ix[0], dhdl.CI(0)),
			}
		})
		// Lanes run across points; the loop-carried min runs over c.
		b.Compute("argmin", []dhdl.Counter{dhdl.C(k), dhdl.CPar(n, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			c, i := ix[0], ix[1]
			dv := dhdl.Ld(dists, dhdl.Add(dhdl.Mul(c, dhdl.CI(int32(n))), i))
			better := dhdl.Lt(dv, dhdl.Ld(bestD, i))
			return []*dhdl.Assign{
				dhdl.StoreAtIf(bestD, better, i, dv),
				dhdl.StoreAtIf(bestC, better, i, c),
			}
		})
		b.Compute("zeroSums", []dhdl.Counter{dhdl.CPar(k*d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.StoreAt(sums, ix[0], dhdl.CF(0))}
		})
		b.Compute("zeroCounts", []dhdl.Counter{dhdl.C(k)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.StoreAt(counts, ix[0], dhdl.CF(0))}
		})
		b.Compute("accum", []dhdl.Counter{dhdl.C(n), dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			i, j := ix[0], ix[1]
			addr := dhdl.Add(dhdl.Mul(dhdl.Ld(bestC, i), dhdl.CI(int32(d))), j)
			val := dhdl.Ld(tX, dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(d))), j))
			return []*dhdl.Assign{dhdl.AccumAt(sums, pattern.Add, addr, val)}
		})
		b.Compute("count", []dhdl.Counter{dhdl.C(n)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.AccumAt(counts, pattern.Add, dhdl.Ld(bestC, ix[0]), dhdl.CF(1))}
		})
		b.Compute("newCent", []dhdl.Counter{dhdl.C(k), dhdl.CPar(d, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			c, j := ix[0], ix[1]
			addr := dhdl.Add(dhdl.Mul(c, dhdl.CI(int32(d))), j)
			val := dhdl.Div(dhdl.Ld(sums, addr), dhdl.Max(dhdl.Ld(counts, c), dhdl.CF(1)))
			return []*dhdl.Assign{dhdl.StoreAt(cent, addr, val)}
		})
	})
	b.Store("stC", dC, dhdl.CI(0), cent, k*d)
	return b.Build()
}

func (w *Kmeans) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n, d, k := w.N, w.D, w.K
	r := newRNG(0x4EA25)
	w.x = make([]float32, n*d)
	for i := 0; i < n; i++ {
		c := r.intn(k)
		for j := 0; j < d; j++ {
			w.x[i*d+j] = float32(c) + 0.2*(r.float()-0.5)
		}
	}
	w.centOut = make([]float32, k*d)
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			w.centOut[c*d+j] = w.x[c*d+j] // first K points
		}
	}
	// Golden reference (same float32 order).
	cents := append([]float32(nil), w.centOut...)
	for it := 0; it < w.Iters; it++ {
		sums := make([]float32, k*d)
		cnts := make([]float32, k)
		for i := 0; i < n; i++ {
			best, bd := 0, float32(math.MaxFloat32)
			for c := 0; c < k; c++ {
				var dist float32
				for j := 0; j < d; j++ {
					diff := w.x[i*d+j] - cents[c*d+j]
					dist += diff * diff
				}
				if dist < bd {
					bd, best = dist, c
				}
			}
			cnts[best]++
			for j := 0; j < d; j++ {
				sums[best*d+j] += w.x[i*d+j]
			}
		}
		for c := 0; c < k; c++ {
			div := cnts[c]
			if div == 0 {
				div = 1
			}
			for j := 0; j < d; j++ {
				cents[c*d+j] = sums[c*d+j] / div
			}
		}
	}
	w.want = cents
	return bind(p, pattern.FromF32("x", w.x), pattern.FromF32("cent", w.centOut))
}

func (w *Kmeans) Check(st *dhdl.State) error {
	return checkF32Slice("kmeans.cent", w.centOut, w.want, 1e-2)
}

func (w *Kmeans) Profile() Profile {
	n, d, k, it := float64(w.N), float64(w.D), float64(w.K), float64(w.Iters)
	return Profile{
		Flops:           it * 3 * n * k * d,
		DenseBytes:      4 * (n*d + k*d),
		OpsPerLane:      3,
		HeavyOpsPerLane: 1, // centroid divide
		SeqIters:        w.Iters,
		SeqChildren:     9,
		PipeDepth:       25,
		FPGALogicUtil:   0.421, FPGAMemUtil: 0.654,
		PaperSpeedup: 6.1, PaperPerfWatt: 11.3,
	}
}

// CNN is a single 3-D convolution layer with sliding-window reuse through
// line buffers (Table 4: model 884,736 / data 57,600, scaled to
// 4-in x 8-out channels over 32x32 with 3x3 kernels).
type CNN struct {
	InCh, OutCh, Img, K int

	in, wts, out []float32
	want         []float32
}

// NewCNN returns the benchmark at simulation scale.
func NewCNN() *CNN { return &CNN{InCh: 8, OutCh: 16, Img: 32, K: 3} }

func (w *CNN) Name() string { return "CNN" }

func (w *CNN) ScaleNote() string {
	return fmt.Sprintf("paper model 884,736 / data 57,600; simulated %dx%d conv %dx%d over %dx%d",
		w.InCh, w.OutCh, w.K, w.K, w.Img, w.Img)
}

func (w *CNN) Program() (*dhdl.Program, error) {
	ic, oc, img, k := w.InCh, w.OutCh, w.Img, w.K
	outW := img - k + 1
	b := dhdl.NewBuilder("cnn", dhdl.Sequential)
	dIn := b.DRAMF32("in", ic, img, img)
	dWt := b.DRAMF32("wt", oc, ic, k, k)
	dOut := b.DRAMF32("out", oc, outW, outW)
	tIn := b.SRAMBanked("tin", pattern.F32, ic*img*img, dhdl.LineBuffer)
	tWt := b.SRAMBanked("twt", pattern.F32, oc*ic*k*k, dhdl.Duplication)
	tOut := b.SRAM("tout", pattern.F32, oc*outW*outW)

	b.Load("ldIn", dIn, dhdl.CI(0), tIn, ic*img*img)
	b.Load("ldWt", dWt, dhdl.CI(0), tWt, oc*ic*k*k)
	b.Pipe("outCh", []dhdl.Counter{dhdl.CPar(oc, 4)}, func(ox []dhdl.Expr) {
		o := ox[0]
		b.Compute("zeroOut", []dhdl.Counter{dhdl.CPar(outW*outW, 16)}, func(zx []dhdl.Expr) []*dhdl.Assign {
			addr := dhdl.Add(dhdl.Mul(o, dhdl.CI(int32(outW*outW))), zx[0])
			return []*dhdl.Assign{dhdl.StoreAt(tOut, addr, dhdl.CF(0))}
		})
		b.Compute("conv", []dhdl.Counter{
			dhdl.CPar(outW, 4), dhdl.C(ic), dhdl.C(k), dhdl.C(k), dhdl.CPar(outW, 16),
		}, func(cx []dhdl.Expr) []*dhdl.Assign {
			y, c, ky, kx, x := cx[0], cx[1], cx[2], cx[3], cx[4]
			inAddr := dhdl.Add(dhdl.Mul(c, dhdl.CI(int32(img*img))),
				dhdl.Add(dhdl.Mul(dhdl.Add(y, ky), dhdl.CI(int32(img))), dhdl.Add(x, kx)))
			wtAddr := dhdl.Add(dhdl.Mul(o, dhdl.CI(int32(ic*k*k))),
				dhdl.Add(dhdl.Mul(c, dhdl.CI(int32(k*k))),
					dhdl.Add(dhdl.Mul(ky, dhdl.CI(int32(k))), kx)))
			outAddr := dhdl.Add(dhdl.Mul(o, dhdl.CI(int32(outW*outW))),
				dhdl.Add(dhdl.Mul(y, dhdl.CI(int32(outW))), x))
			val := dhdl.Mul(dhdl.Ld(tIn, inAddr), dhdl.Ld(tWt, wtAddr))
			return []*dhdl.Assign{dhdl.AccumAt(tOut, pattern.Add, outAddr, val)}
		})
	})
	b.Store("stOut", dOut, dhdl.CI(0), tOut, oc*outW*outW)
	return b.Build()
}

func (w *CNN) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	ic, oc, img, k := w.InCh, w.OutCh, w.Img, w.K
	outW := img - k + 1
	r := newRNG(0xC44)
	w.in = make([]float32, ic*img*img)
	w.wts = make([]float32, oc*ic*k*k)
	for i := range w.in {
		w.in[i] = r.float() - 0.5
	}
	for i := range w.wts {
		w.wts[i] = r.float() - 0.5
	}
	w.out = make([]float32, oc*outW*outW)
	w.want = make([]float32, oc*outW*outW)
	for o := 0; o < oc; o++ {
		for y := 0; y < outW; y++ {
			for x := 0; x < outW; x++ {
				var s float32
				for c := 0; c < ic; c++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							s += w.in[c*img*img+(y+ky)*img+(x+kx)] * w.wts[o*ic*k*k+c*k*k+ky*k+kx]
						}
					}
				}
				w.want[o*outW*outW+y*outW+x] = s
			}
		}
	}
	return bind(p, pattern.FromF32("in", w.in), pattern.FromF32("wt", w.wts),
		pattern.FromF32("out", w.out))
}

func (w *CNN) Check(st *dhdl.State) error {
	return checkF32Slice("cnn.out", w.out, w.want, 1e-3)
}

func (w *CNN) Profile() Profile {
	ic, oc, k := float64(w.InCh), float64(w.OutCh), float64(w.K)
	outW := float64(w.Img - w.K + 1)
	return Profile{
		Flops:         2 * oc * outW * outW * ic * k * k,
		DenseBytes:    4 * (ic*float64(w.Img*w.Img) + oc*ic*k*k + oc*outW*outW),
		OpsPerLane:    2,
		FPGALogicUtil: 0.868, FPGAMemUtil: 0.99,
		PaperSpeedup: 95.1, PaperPerfWatt: 76.9,
	}
}
