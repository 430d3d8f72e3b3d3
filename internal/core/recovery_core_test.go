package core

import (
	"context"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/fault"
	"plasticine/internal/sim"
)

func TestRecoveryReportInnerProduct(t *testing.T) {
	spec := fault.Spec{Seed: 3, Events: []fault.EventSpec{
		{Kind: fault.KillPCU, Cycle: 500},
		{Kind: fault.KillChan, Cycle: 1500},
	}}
	rep, err := NewSession().Recovery(context.Background(), benchByName(t, "InnerProduct"), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) == 0 {
		t.Fatal("no events fired; schedule the kills earlier in the run")
	}
	if rep.BaselineCycles <= 0 || rep.Cycles < rep.BaselineCycles {
		t.Errorf("cycles %d vs baseline %d: recovery cannot beat the event-free run",
			rep.Cycles, rep.BaselineCycles)
	}
	gap := rep.Cycles - rep.BaselineCycles
	if got := rep.DrainCycles + rep.ReconfigCycles + rep.ReExecCycles; got < gap {
		t.Errorf("overhead decomposition %d does not cover the makespan gap %d", got, gap)
	}
	out := FormatRecovery(rep)
	for _, want := range []string{"kill-pcu", "re-execution", "baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestRecoveryDecompositionPinned pins the recovery -seed 4 InnerProduct
// report: the makespans, the overhead decomposition and each event's pause
// cycle, drain and reconfiguration stall. A stall that shifted the clock but
// not the DRAM refresh schedule would move the recovered makespan.
func TestRecoveryDecompositionPinned(t *testing.T) {
	spec := fault.Spec{Seed: 4, Events: DefaultRecoveryEvents()}
	rep, err := NewSession().Recovery(context.Background(), benchByName(t, "InnerProduct"), spec)
	if err != nil {
		t.Fatal(err)
	}
	type run struct{ base, cycles, drain, reconfig, reExec int64 }
	got := run{rep.BaselineCycles, rep.Cycles, rep.DrainCycles, rep.ReconfigCycles, rep.ReExecCycles}
	if want := (run{42097, 59464, 1100, 4195, 12072}); got != want {
		t.Errorf("baseline, recovered, drain, reconfig, re-execution = %+v, want %+v", got, want)
	}
	wantEvents := []struct {
		prefix              string
		at, drain, reconfig int64
	}{
		{"kill-pcu@1000 ", 1000, 512, 91},
		{"kill-pmu@2500 ", 2500, 588, 4104},
		{"kill-chan@4000 ", 7192, 0, 0},
	}
	if len(rep.Events) != len(wantEvents) {
		t.Fatalf("%d events survived, want %d: %+v", len(rep.Events), len(wantEvents), rep.Events)
	}
	for i, w := range wantEvents {
		ev := rep.Events[i]
		if !strings.HasPrefix(ev.Event, w.prefix) || ev.At != w.at ||
			ev.DrainCycles != w.drain || ev.ReconfigCycles != w.reconfig {
			t.Errorf("event %d: %s fired at %d, drain %d, reconfig %d; want %sfired at %d, drain %d, reconfig %d",
				i, ev.Event, ev.At, ev.DrainCycles, ev.ReconfigCycles, w.prefix, w.at, w.drain, w.reconfig)
		}
	}
}

// TestOnePlanBacksTwoRecoveredRuns: recovery extends its own copy of the
// fault plan, so a caller may compile and simulate twice from one plan and
// get the same recovered run each time, with the plan as it was.
func TestOnePlanBacksTwoRecoveredRuns(t *testing.T) {
	ctx := context.Background()
	plan, err := fault.NewPlan(fault.Spec{Seed: 4, Events: DefaultRecoveryEvents()}, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	before := plan.String()
	for run := 1; run <= 2; run++ {
		p, err := benchByName(t, "InnerProduct").Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: arch.Default(), Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := sim.Simulate(ctx, m, sim.Options{Recovery: true})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Cycles != 59464 {
			t.Errorf("run %d: %d cycles, want 59464", run, res.Cycles)
		}
		if got := plan.String(); got != before {
			t.Fatalf("run %d changed the plan from %q to %q", run, before, got)
		}
	}
}

func TestRecoveryRejectsEventFreeSpec(t *testing.T) {
	_, err := NewSession().Recovery(context.Background(), benchByName(t, "InnerProduct"), fault.Spec{Seed: 1})
	if err == nil {
		t.Fatal("recovery accepted a spec with no timed events")
	}
}

func TestResilienceSpecCarriesMemoryFaults(t *testing.T) {
	s := NewSession()
	base := fault.Spec{Seed: 1, TransientProb: 0.01}
	rows, err := s.Resilience(context.Background(), benchByName(t, "InnerProduct"), base, []float64{0, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !rows[0].Feasible {
		t.Fatalf("unexpected sweep shape: %+v", rows)
	}
	// The fraction-0 point now runs on a noisy memory system, so it must be
	// slower than the clean pristine run.
	clean, err := s.Resilience(context.Background(), benchByName(t, "InnerProduct"), fault.Spec{Seed: 1}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Cycles <= clean[0].Cycles {
		t.Errorf("retry-noisy baseline %d cycles not slower than clean %d",
			rows[0].Cycles, clean[0].Cycles)
	}
}

func TestResilienceSpecRejectsTileCounts(t *testing.T) {
	_, err := NewSession().Resilience(context.Background(), benchByName(t, "InnerProduct"),
		fault.Spec{PCUs: 3}, []float64{0})
	if err == nil {
		t.Fatal("base spec with tile counts accepted")
	}
}
