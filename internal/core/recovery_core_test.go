package core

import (
	"context"
	"strings"
	"testing"

	"plasticine/internal/fault"
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
