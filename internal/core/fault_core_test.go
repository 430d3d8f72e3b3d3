package core

import (
	"context"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/fault"
	"plasticine/internal/workloads"
)

func benchByName(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestZeroFaultPlanKeepsMakespan(t *testing.T) {
	zero, err := fault.NewPlan(fault.Spec{Seed: 123}, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pristineSess, zeroSess := NewSession(), NewSession(WithFaults(zero))
	for _, name := range []string{"InnerProduct", "GEMM", "BlackScholes"} {
		b := benchByName(t, name)
		pristine, err := pristineSess.RunBenchmark(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := zeroSess.RunBenchmark(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if pristine.Cycles != faulted.Cycles {
			t.Errorf("%s: zero-fault plan changed makespan %d -> %d",
				name, pristine.Cycles, faulted.Cycles)
		}
		if faulted.Retries != 0 || faulted.LatencySpikes != 0 {
			t.Errorf("%s: zero-fault plan reported fault activity: %+v", name, faulted)
		}
	}
}

func TestFaultedRunDeterministic(t *testing.T) {
	ctx := context.Background()
	spec := fault.Spec{Seed: 4, PCUs: 8, PMUs: 4, Switches: 2,
		Chans: 1, TransientProb: 0.001}
	// Each run gets its own session, hence its own cache: the second run
	// recomputes instead of replaying the first.
	run := func() *BenchResult {
		plan, err := fault.NewPlan(spec, arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewSession(WithFaults(plan)).RunBenchmark(ctx, benchByName(t, "InnerProduct"))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Retries != b.Retries || a.LatencySpikes != b.LatencySpikes {
		t.Errorf("same fault seed produced different runs:\n%+v\n%+v", a, b)
	}
	// A downed channel and transient retries must cost cycles, not results.
	pristine, err := NewSession().RunBenchmark(ctx, benchByName(t, "InnerProduct"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles <= pristine.Cycles {
		t.Errorf("faulted run (%d cycles) not slower than pristine (%d)", a.Cycles, pristine.Cycles)
	}
}

func TestResilienceSweep(t *testing.T) {
	rows, err := NewSession().Resilience(context.Background(), benchByName(t, "InnerProduct"),
		fault.Spec{Seed: 1}, []float64{0, 0.25, 0.50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if !rows[0].Feasible || rows[0].Fraction != 0 || rows[0].Slowdown != 1 {
		t.Errorf("baseline row malformed: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.Feasible && r.Slowdown < 1 {
			t.Errorf("disabled tiles sped the program up: %+v", r)
		}
		if !r.Feasible && r.Reason == "" {
			t.Errorf("infeasible row has no reason: %+v", r)
		}
	}
	out := FormatResilience("InnerProduct", 1, rows)
	if !strings.Contains(out, "Slowdown") || !strings.Contains(out, "0%") {
		t.Errorf("formatted sweep malformed:\n%s", out)
	}
}
