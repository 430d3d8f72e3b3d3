package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
	"plasticine/internal/pattern"
)

// dotSetup compiles and binds a tiled dot product.
func dotSetup(t *testing.T, n, tile int, pipelined bool) (*compiler.Mapping, *dhdl.Reg, float64) {
	t.Helper()
	b := dhdl.NewBuilder("dot", dhdl.Sequential)
	a := b.DRAMF32("a", n)
	bv := b.DRAMF32("b", n)
	ta := b.SRAM("ta", pattern.F32, tile)
	tb := b.SRAM("tb", pattern.F32, tile)
	partial := b.Reg("partial", pattern.VF(0))
	total := b.Reg("total", pattern.VF(0))
	body := func(ix []dhdl.Expr) {
		b.Load("loadA", a, ix[0], ta, tile)
		b.Load("loadB", bv, ix[0], tb, tile)
		b.Compute("mac", []dhdl.Counter{dhdl.CPar(tile, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(partial, pattern.Add, dhdl.Mul(dhdl.Ld(ta, jx[0]), dhdl.Ld(tb, jx[0])))}
		})
		b.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(total, dhdl.Add(dhdl.Rd(total), dhdl.Rd(partial)))}
		})
	}
	if pipelined {
		b.Pipe("tiles", []dhdl.Counter{dhdl.CStep(0, n, tile)}, body)
	} else {
		b.Seq("tiles", []dhdl.Counter{dhdl.CStep(0, n, tile)}, body)
	}
	p := b.MustBuild()

	av, bvv := make([]float32, n), make([]float32, n)
	var want float64
	for i := range av {
		av[i] = float32(i%7) * 0.25
		bvv[i] = float32(i%5) - 2
		want += float64(av[i]) * float64(bvv[i])
	}
	if err := a.Bind(pattern.FromF32("a", av)); err != nil {
		t.Fatal(err)
	}
	if err := bv.Bind(pattern.FromF32("b", bvv)); err != nil {
		t.Fatal(err)
	}
	m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	return m, total, want
}

func TestSimDotFunctionalMatchesReference(t *testing.T) {
	m, total, want := dotSetup(t, 4096, 512, true)
	res, st, err := Simulate(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(st.RegValue(total).F)
	if math.Abs(got-want) > 1e-2*math.Abs(want)+1e-3 {
		t.Errorf("dot = %g, want %g", got, want)
	}
	if res.Cycles <= 0 {
		t.Errorf("cycles = %d, want positive", res.Cycles)
	}
	if res.DRAM.BytesRead < int64(2*4096*4) {
		t.Errorf("DRAM read %d bytes, want >= %d (both vectors)", res.DRAM.BytesRead, 2*4096*4)
	}
}

// TestSimulateCanceledStopsInFunctionalTrace checks that cancellation
// reaches the functional interpreter, which runs before the engine and
// used to ignore the context.
func TestSimulateCanceledStopsInFunctionalTrace(t *testing.T) {
	plan, err := fault.NewPlan(fault.Spec{Seed: 2,
		Events: []fault.EventSpec{{Kind: fault.KillChan, Cycle: 300}}}, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	plain, _, _ := dotSetup(t, 4096, 512, true)
	recovering, _, _ := recoverySetup(t, plan)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, m := range map[string]*compiler.Mapping{"plain": plain, "recovering": recovering} {
		if _, _, err := Simulate(ctx, m, Options{Recovery: true}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s run under a canceled context = %v, want context.Canceled", name, err)
		}
	}
}

func TestSimPipelineFasterThanSequential(t *testing.T) {
	mp, _, _ := dotSetup(t, 8192, 512, true)
	ms, _, _ := dotSetup(t, 8192, 512, false)
	rp, _, err := Simulate(context.Background(), mp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := Simulate(context.Background(), ms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Coarse-grained pipelining overlaps tile loads with compute
	// (double-buffered tiles); sequential execution serializes them.
	if float64(rp.Cycles) > 0.9*float64(rs.Cycles) {
		t.Errorf("pipelined %d cycles not faster than sequential %d", rp.Cycles, rs.Cycles)
	}
}

func TestSimStreamingBoundByDRAMBandwidth(t *testing.T) {
	// A pure streaming workload (vector sum of one big array) should run
	// close to DRAM bandwidth: bytes / 51.2 B/cycle.
	n, tile := 65536, 1024
	b := dhdl.NewBuilder("sum", dhdl.Sequential)
	a := b.DRAMF32("a", n)
	ta := b.SRAM("ta", pattern.F32, tile)
	partial := b.Reg("partial", pattern.VF(0))
	total := b.Reg("total", pattern.VF(0))
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStep(0, n, tile)}, func(ix []dhdl.Expr) {
		b.Load("ld", a, ix[0], ta, tile)
		b.Compute("sum", []dhdl.Counter{dhdl.CPar(tile, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(partial, pattern.Add, dhdl.Ld(ta, jx[0]))}
		})
		b.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(total, dhdl.Add(dhdl.Rd(total), dhdl.Rd(partial)))}
		})
	})
	p := b.MustBuild()
	av := make([]float32, n)
	for i := range av {
		av[i] = 1
	}
	if err := a.Bind(pattern.FromF32("a", av)); err != nil {
		t.Fatal(err)
	}
	m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := Simulate(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(total).F; got != float32(n) {
		t.Fatalf("sum = %g, want %d", got, n)
	}
	idealCycles := float64(n*4) / 51.2
	ratio := float64(res.Cycles) / idealCycles
	if ratio > 2.5 {
		t.Errorf("streaming sum took %d cycles, %.1fx the bandwidth bound %.0f", res.Cycles, ratio, idealCycles)
	}
}

func TestSimGatherSlowerThanDenseLoad(t *testing.T) {
	// Random gathers waste burst bandwidth; dense loads of the same volume
	// should be faster.
	n := 16384
	nIdx := 2048
	build := func(sparse bool) *compiler.Mapping {
		b := dhdl.NewBuilder("g", dhdl.Sequential)
		table := b.DRAMF32("table", n)
		idxb := b.DRAMI32("idx", nIdx)
		addrs := b.SRAM("addrs", pattern.I32, nIdx)
		vals := b.SRAMBanked("vals", pattern.F32, nIdx, dhdl.Duplication)
		out := b.Reg("out", pattern.VF(0))
		b.Seq("body", nil, func([]dhdl.Expr) {
			b.Load("li", idxb, dhdl.CI(0), addrs, nIdx)
			if sparse {
				b.Gather("gather", table, addrs, vals, nIdx, nil)
			} else {
				b.Load("dense", table, dhdl.CI(0), vals, nIdx)
			}
			b.Compute("sum", []dhdl.Counter{dhdl.CPar(nIdx, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
				return []*dhdl.Assign{dhdl.Accum(out, pattern.Add, dhdl.Ld(vals, ix[0]))}
			})
		})
		p := b.MustBuild()
		tv := make([]float32, n)
		for i := range tv {
			tv[i] = float32(i)
		}
		iv := make([]int32, nIdx)
		rng := uint32(12345)
		for i := range iv {
			rng = rng*1664525 + 1013904223
			iv[i] = int32(rng % uint32(n))
		}
		mustBindT(b, table, pattern.FromF32("t", tv))
		mustBindT(b, idxb, pattern.FromI32("i", iv))
		m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
		if err != nil {
			panic(err)
		}
		return m
	}
	rs, _, err := Simulate(context.Background(), build(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, _, err := Simulate(context.Background(), build(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(rs.Cycles) < 1.5*float64(rd.Cycles) {
		t.Errorf("gather (%d cycles) should be >=1.5x slower than dense (%d cycles)", rs.Cycles, rd.Cycles)
	}
	if rs.DRAM.BytesRead <= rd.DRAM.BytesRead {
		t.Errorf("gather read %d bytes, dense %d; gather should read more (wasted burst words)",
			rs.DRAM.BytesRead, rd.DRAM.BytesRead)
	}
}

func mustBindT(_ *dhdl.Builder, d *dhdl.DRAMBuf, c *pattern.Collection) {
	if err := d.Bind(c); err != nil {
		panic(err)
	}
}

func TestSimUnrollSpeedsUpCompute(t *testing.T) {
	// A compute-heavy loop should speed up with outer parallelization.
	build := func(par int) *compiler.Mapping {
		b := dhdl.NewBuilder("cb", dhdl.Sequential)
		s := b.SRAM("s", pattern.F32, 4096)
		d := b.SRAM("d", pattern.F32, 4096)
		b.Pipe("outer", []dhdl.Counter{dhdl.CPar(64, par)}, func(ix []dhdl.Expr) {
			b.Compute("heavy", []dhdl.Counter{dhdl.CPar(4096, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
				v := dhdl.Ld(s, jx[0])
				for k := 0; k < 10; k++ {
					v = dhdl.Add(dhdl.Mul(v, dhdl.CF(1.0001)), dhdl.CF(0.5))
				}
				return []*dhdl.Assign{dhdl.StoreAt(d, jx[0], v)}
			})
		})
		m, err := compiler.CompileOpts(context.Background(), b.MustBuild(), compiler.Options{Params: arch.Default()})
		if err != nil {
			panic(err)
		}
		return m
	}
	r1, _, err := Simulate(context.Background(), build(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r4, _, err := Simulate(context.Background(), build(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(r1.Cycles) / float64(r4.Cycles)
	if speedup < 2.5 {
		t.Errorf("par=4 speedup = %.2fx, want >= 2.5x", speedup)
	}
}

func TestSimPowerWithinChipEnvelope(t *testing.T) {
	m, _, _ := dotSetup(t, 4096, 512, true)
	res, _, err := Simulate(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerW <= 0 || res.PowerW > arch.MaxPower(arch.Default()) {
		t.Errorf("power = %.1f W, want within (0, %.1f]", res.PowerW, arch.MaxPower(arch.Default()))
	}
}

func TestSimSequentialDependencyOrdering(t *testing.T) {
	// Under a Sequential parent, a consumer's activity must start after
	// the producer ends; verify via a two-stage chain whose result depends
	// on ordering.
	b := dhdl.NewBuilder("seqdep", dhdl.Sequential)
	s := b.SRAM("s", pattern.F32, 16)
	r := b.Reg("r", pattern.VF(0))
	b.Seq("body", nil, func([]dhdl.Expr) {
		b.Compute("w", []dhdl.Counter{dhdl.C(16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.StoreAt(s, ix[0], dhdl.F32(ix[0]))}
		})
		b.Compute("rsum", []dhdl.Counter{dhdl.C(16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(r, pattern.Add, dhdl.Ld(s, ix[0]))}
		})
	})
	m, err := compiler.CompileOpts(context.Background(), b.MustBuild(), compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := Simulate(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RegValue(r).F; got != 120 { // 0+1+...+15
		t.Errorf("sum = %g, want 120", got)
	}
	// Timing sanity: total must cover both pipelines back to back.
	if res.Cycles < 2 {
		t.Errorf("cycles = %d, implausibly small", res.Cycles)
	}
}

func TestSimResultDerivedMetrics(t *testing.T) {
	r := &Result{Seconds: 1e-6}
	r.DRAM.BytesRead = 512
	r.DRAM.BytesWritten = 512
	if got := r.EffectiveBandwidth(); got != 1024/1e-6 {
		t.Errorf("EffectiveBandwidth = %g", got)
	}
}
