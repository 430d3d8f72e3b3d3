package core

import (
	"context"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/fault"
	"plasticine/internal/workloads"
)

// provenanceBenches are the Table 4 benchmarks the provenance goldens run
// over: the acceptance set for source-level profiling.
func provenanceBenches() []workloads.Benchmark {
	return []workloads.Benchmark{
		workloads.NewInnerProduct(),
		workloads.NewBlackScholes(),
		workloads.NewTPCHQ6(),
		workloads.NewOuterProduct(),
	}
}

// TestMappingProvenanceGolden: every unit in a compiled benchmark's mapping
// carries non-empty provenance — no orphans after allocation, partitioning,
// placement, or a mid-run Repair.
func TestMappingProvenanceGolden(t *testing.T) {
	for _, b := range provenanceBenches() {
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		assertNoOrphans := func(stage string) {
			t.Helper()
			for _, nd := range m.Netlist.Nodes {
				if nd.Origin == "" {
					t.Errorf("%s: %s: node %s has empty provenance", b.Name(), stage, nd.Name)
				}
			}
			for _, pc := range m.Part.PCUs {
				if pc.V.Origin == "" {
					t.Errorf("%s: %s: partitioned PCU %s has empty provenance", b.Name(), stage, pc.V.Name)
				}
			}
			for _, pm := range m.Part.PMUs {
				if pm.V.Origin == "" {
					t.Errorf("%s: %s: partitioned PMU %s has empty provenance", b.Name(), stage, pm.V.Name)
				}
			}
			for _, ag := range m.Virtual.AGs {
				if ag.Origin == "" {
					t.Errorf("%s: %s: AG %s has empty provenance", b.Name(), stage, ag.Name)
				}
			}
		}
		assertNoOrphans("compile")

		// Kill the first occupied PCU tile; repair must preserve provenance.
		var victim *compiler.Node
		for _, nd := range m.Netlist.Nodes {
			if nd.Kind == compiler.NodePCU {
				victim = nd
				break
			}
		}
		if victim == nil {
			t.Fatalf("%s: no PCU node to kill", b.Name())
		}
		plan := fault.ManualPlan([]fault.Coord{{X: victim.X, Y: victim.Y}}, nil, nil, nil)
		if _, err := compiler.Repair(context.Background(), m, plan); err != nil {
			t.Fatalf("%s: repair: %v", b.Name(), err)
		}
		assertNoOrphans("repair")
	}
}

// TestPatternRollupSumsToMakespan is the acceptance criterion: on the
// annotated Table 4 benchmarks, the per-pattern profile's cycles sum exactly
// to the simulated makespan, and every traced unit resolves to a
// source-level origin.
func TestPatternRollupSumsToMakespan(t *testing.T) {
	sess := NewSession()
	for _, b := range provenanceBenches() {
		p, err := sess.Profile(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		pr := p.Pattern
		if pr.TotalCycles != p.Bench.Cycles {
			t.Errorf("%s: pattern report total %d != run cycles %d", b.Name(), pr.TotalCycles, p.Bench.Cycles)
		}
		if got := pr.AttributedTotal(); got != pr.TotalCycles {
			t.Errorf("%s: attributed %d cycles, want exactly the makespan %d", b.Name(), got, pr.TotalCycles)
		}
		if len(pr.Rows) == 0 {
			t.Fatalf("%s: pattern report has no rows", b.Name())
		}
		sourceLevel := 0
		for i := range pr.Rows {
			r := &pr.Rows[i]
			if r.Origin == "" {
				t.Errorf("%s: row %d has empty origin", b.Name(), i)
			}
			if strings.Contains(r.Origin, "/") {
				sourceLevel++
			}
			if r.AttrBusy+r.AttrStall != r.Attributed {
				t.Errorf("%s: %s: busy %d + stall %d != attributed %d",
					b.Name(), r.Origin, r.AttrBusy, r.AttrStall, r.Attributed)
			}
		}
		if sourceLevel == 0 {
			t.Errorf("%s: no row carries a source-level (pattern) origin", b.Name())
		}
		for i := range p.Report.Units {
			if p.Report.Units[i].Origin == "" {
				t.Errorf("%s: unit %s has empty origin", b.Name(), p.Report.Units[i].Name)
			}
		}
		// Round trip (PR 3 invariant -> PR 4 rollup): group aggregates equal
		// the sums over member unit profiles.
		var unitBusy, rowBusy int64
		for i := range p.Report.Units {
			unitBusy += p.Report.Units[i].Busy
		}
		for i := range pr.Rows {
			rowBusy += pr.Rows[i].Busy
		}
		if unitBusy != rowBusy {
			t.Errorf("%s: per-pattern busy aggregate %d != per-unit total %d", b.Name(), rowBusy, unitBusy)
		}
	}
}

// TestProfileByPatternRendering: the rendered table names pattern nodes and
// states the exact-sum identity.
func TestProfileByPatternRendering(t *testing.T) {
	p, err := NewSession().Profile(context.Background(), workloads.NewInnerProduct())
	if err != nil {
		t.Fatal(err)
	}
	s := FormatPatternProfile(p.Pattern)
	for _, want := range []string{"Fold/load:a", "Fold/F", "(idle)", "makespan"} {
		if !strings.Contains(s, want) {
			t.Errorf("pattern profile lacks %q:\n%s", want, s)
		}
	}
}

// TestProfileCarriesCompilePasses: a profiled run exposes the compile pass
// trace and ships it on the Chrome trace's compiler track.
func TestProfileCarriesCompilePasses(t *testing.T) {
	p, err := NewSession().Profile(context.Background(), workloads.NewInnerProduct())
	if err != nil {
		t.Fatal(err)
	}
	if p.Passes == nil || len(p.Passes.Entries) == 0 {
		t.Fatal("profiled run has no compile pass trace")
	}
	data, err := p.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"compiler"`, `"allocate"`, `"route"`} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome trace lacks %s on the compiler track", want)
		}
	}
}
