package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
	"plasticine/internal/pattern"
	"plasticine/internal/trace"
)

// recoverySetup compiles the shared dot-product fixture under a fault plan
// (fresh program and bindings per call: the functional trace consumes them).
func recoverySetup(t *testing.T, plan *fault.Plan) (*compiler.Mapping, *dhdl.Reg, float64) {
	t.Helper()
	n, tile := 16384, 1024
	b := dhdl.NewBuilder("dot", dhdl.Sequential)
	a := b.DRAMF32("a", n)
	bv := b.DRAMF32("b", n)
	ta := b.SRAM("ta", pattern.F32, tile)
	tb := b.SRAM("tb", pattern.F32, tile)
	partial := b.Reg("partial", pattern.VF(0))
	total := b.Reg("total", pattern.VF(0))
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStep(0, n, tile)}, func(ix []dhdl.Expr) {
		b.Load("loadA", a, ix[0], ta, tile)
		b.Load("loadB", bv, ix[0], tb, tile)
		b.Compute("mac", []dhdl.Counter{dhdl.CPar(tile, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(partial, pattern.Add, dhdl.Mul(dhdl.Ld(ta, jx[0]), dhdl.Ld(tb, jx[0])))}
		})
		b.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(total, dhdl.Add(dhdl.Rd(total), dhdl.Rd(partial)))}
		})
	})
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
	m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default(), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return m, total, want
}

func checkDot(t *testing.T, st *dhdl.State, total *dhdl.Reg, want float64) {
	t.Helper()
	got := float64(st.RegValue(total).F)
	if math.Abs(got-want) > 1e-2*math.Abs(want)+1e-3 {
		t.Errorf("dot = %g, want %g (recovery corrupted the computation)", got, want)
	}
}

// TestRecoveryZeroEventsMatchesPlainRun: with no timed events, the recovery
// controller must be bit-identical to the plain pipeline.
func TestRecoveryZeroEventsMatchesPlainRun(t *testing.T) {
	plan, err := fault.NewPlan(fault.Spec{Seed: 5, PCUs: 2, PMUs: 2}, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	m1, total1, want := recoverySetup(t, plan)
	col1, col2 := trace.NewCollector(), trace.NewCollector()
	r1, st1, err := Simulate(context.Background(), m1, Options{Recorder: col1})
	if err != nil {
		t.Fatal(err)
	}
	checkDot(t, st1, total1, want)

	plan2, err := fault.NewPlan(fault.Spec{Seed: 5, PCUs: 2, PMUs: 2}, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	m2, total2, _ := recoverySetup(t, plan2)
	r2, st2, err := Simulate(context.Background(), m2, Options{Recovery: true, Recorder: col2})
	if err != nil {
		t.Fatal(err)
	}
	checkDot(t, st2, total2, want)
	if r2.Recovery != nil {
		t.Error("zero-event run reports recovery stats")
	}
	if r1.Cycles != r2.Cycles || r1.DRAM != r2.DRAM {
		t.Errorf("zero-event recovery diverges from the plain run: %d vs %d cycles, DRAM\n%+v\n%+v",
			r2.Cycles, r1.Cycles, r2.DRAM, r1.DRAM)
	}
	if c1, c2 := col1.Report().Channels, col2.Report().Channels; !reflect.DeepEqual(c1, c2) {
		t.Errorf("zero-event recovery's per-channel DRAM counters diverge from the plain run's:\n%+v\n%+v", c2, c1)
	}
}

// pristineCycles runs the fixture fault-free.
func pristineCycles(t *testing.T) int64 {
	t.Helper()
	m, total, want := recoverySetup(t, nil)
	r, st, err := Simulate(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkDot(t, st, total, want)
	return r.Cycles
}

// occupiedPCUTile compiles once pristine to learn a tile some PCU occupies;
// a zero-fault compile is deterministic, so the same tile is occupied again.
func occupiedPCUTile(t *testing.T) fault.Coord {
	t.Helper()
	m, _, _ := recoverySetup(t, nil)
	for _, nd := range m.Netlist.Nodes {
		if nd.Kind == compiler.NodePCU {
			return fault.Coord{X: nd.X, Y: nd.Y}
		}
	}
	t.Fatal("fixture maps no PCUs")
	return fault.Coord{}
}

func TestRecoverySurvivesPCUKill(t *testing.T) {
	base := pristineCycles(t)
	victim := occupiedPCUTile(t)
	plan := fault.ManualPlan(nil, nil, nil, nil)
	if err := plan.AddEvent(fault.Event{Kind: fault.KillPCU, Cycle: 500, Victim: victim}); err != nil {
		t.Fatal(err)
	}
	m, total, want := recoverySetup(t, plan)
	r, st, err := Simulate(context.Background(), m, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	checkDot(t, st, total, want)
	if r.Recovery == nil || len(r.Recovery.Events) != 1 {
		t.Fatalf("want exactly one survived event, got %+v", r.Recovery)
	}
	re := r.Recovery.Events[0]
	if re.At < 500 {
		t.Errorf("event fired at cycle %d, scheduled for 500", re.At)
	}
	if re.MovedPCUs < 1 {
		t.Errorf("killing an occupied PCU tile moved %d PCUs, want >= 1", re.MovedPCUs)
	}
	if re.ReconfigCycles <= 0 {
		t.Errorf("reconfiguration charged %d cycles, want > 0 after a unit move", re.ReconfigCycles)
	}
	// The stall can overlap schedule slack, so pristine + stall is not a
	// strict floor; but the run cannot be faster than pristine, and the
	// resumed tail cannot end before the stall itself does.
	if r.Cycles < base {
		t.Errorf("recovered run took %d cycles, faster than pristine %d", r.Cycles, base)
	}
	if r.Cycles < re.At+re.DrainCycles+re.ReconfigCycles {
		t.Errorf("makespan %d ends before the recovery stall (%d + %d + %d) finished",
			r.Cycles, re.At, re.DrainCycles, re.ReconfigCycles)
	}
}

func TestRecoverySurvivesChannelKill(t *testing.T) {
	base := pristineCycles(t)
	plan, err := fault.NewPlan(fault.Spec{Seed: 2,
		Events: []fault.EventSpec{{Kind: fault.KillChan, Cycle: 300}}}, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, total, want := recoverySetup(t, plan)
	r, st, err := Simulate(context.Background(), m, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	checkDot(t, st, total, want)
	if r.Recovery == nil || len(r.Recovery.Events) != 1 {
		t.Fatalf("want exactly one survived event, got %+v", r.Recovery)
	}
	re := r.Recovery.Events[0]
	if re.LostBursts == 0 {
		t.Error("killing a channel mid-stream lost no bursts; expected queued work to drop")
	}
	if re.MovedPCUs != 0 || re.ReconfigCycles != 0 {
		t.Errorf("memory fault charged fabric reconfiguration: %+v", re)
	}
	if r.Cycles <= base {
		t.Errorf("3-channel run with mid-stream kill took %d cycles, pristine 4-channel %d; want slower", r.Cycles, base)
	}
}

// TestRecoveryDeterministic: a fixed event spec yields a byte-identical
// final Result across runs.
func TestRecoveryDeterministic(t *testing.T) {
	run := func() *Result {
		plan, err := fault.NewPlan(fault.Spec{Seed: 9, Events: []fault.EventSpec{
			{Kind: fault.KillPCU, Cycle: 400},
			{Kind: fault.KillChan, Cycle: 900},
		}}, arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		m, total, want := recoverySetup(t, plan)
		r, st, err := Simulate(context.Background(), m, Options{Recovery: true})
		if err != nil {
			t.Fatal(err)
		}
		checkDot(t, st, total, want)
		r.WallTime = 0 // host time is the only non-deterministic field
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same event spec produced different results:\n%+v\n%+v", a, b)
	}
}

// TestRecoveryMultiEventOrdering: both events fire, in order, and overhead
// totals equal the per-event sums.
func TestRecoveryMultiEventOrdering(t *testing.T) {
	plan, err := fault.NewPlan(fault.Spec{Seed: 13, Events: []fault.EventSpec{
		{Kind: fault.KillPMU, Cycle: 800},
		{Kind: fault.KillPCU, Cycle: 350},
	}}, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, total, want := recoverySetup(t, plan)
	r, st, err := Simulate(context.Background(), m, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	checkDot(t, st, total, want)
	if r.Recovery == nil || len(r.Recovery.Events) != 2 {
		t.Fatalf("want two survived events, got %+v", r.Recovery)
	}
	if r.Recovery.Events[0].At > r.Recovery.Events[1].At {
		t.Errorf("events fired out of order: %+v", r.Recovery.Events)
	}
	var drain, reconf int64
	for _, re := range r.Recovery.Events {
		drain += re.DrainCycles
		reconf += re.ReconfigCycles
	}
	if drain != r.Recovery.DrainCycles || reconf != r.Recovery.ReconfigCycles {
		t.Errorf("totals %d/%d do not match per-event sums %d/%d",
			r.Recovery.DrainCycles, r.Recovery.ReconfigCycles, drain, reconf)
	}
}
