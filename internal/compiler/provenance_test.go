package compiler

import (
	"context"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
	"plasticine/internal/pattern"
)

// buildOriginDot is the dot-product fixture with source-level origins, as the
// pattern lowerer (and annotated workloads) would stamp them.
func buildOriginDot(n, tile, lanes, par int) *dhdl.Program {
	b := dhdl.NewBuilder("dot", dhdl.Sequential)
	b.SetOrigin("Fold/load:a")
	a := b.DRAMF32("a", n)
	ta := b.SRAM("ta", pattern.F32, tile)
	b.SetOrigin("Fold/load:b")
	bv := b.DRAMF32("b", n)
	tb := b.SRAM("tb", pattern.F32, tile)
	b.SetOrigin("Fold/F")
	partial := b.Reg("partial", pattern.VF(0))
	b.SetOrigin("Fold/combine")
	total := b.Reg("total", pattern.VF(0))
	b.SetOrigin("Fold/tiles")
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStepPar(0, n, tile, par)}, func(ix []dhdl.Expr) {
		b.SetOrigin("Fold/load:a")
		b.Load("loadA", a, ix[0], ta, tile)
		b.SetOrigin("Fold/load:b")
		b.Load("loadB", bv, ix[0], tb, tile)
		b.SetOrigin("Fold/F")
		b.Compute("mac", []dhdl.Counter{dhdl.CPar(tile, lanes)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.Accum(partial, pattern.Add, dhdl.Mul(dhdl.Ld(ta, jx[0]), dhdl.Ld(tb, jx[0])))}
		})
		b.SetOrigin("Fold/combine")
		b.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(total, dhdl.Add(dhdl.Rd(total), dhdl.Rd(partial)))}
		})
	})
	return b.MustBuild()
}

// TestNetlistCarriesOrigins: every netlist node of a compiled program has a
// non-empty Origin, and nodes built from origin-annotated controllers carry
// the source-level name rather than the physical one.
func TestNetlistCarriesOrigins(t *testing.T) {
	m, err := CompileOpts(context.Background(), buildOriginDot(1024, 256, 16, 1), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix := map[string]bool{}
	for _, nd := range m.Netlist.Nodes {
		if nd.Origin == "" {
			t.Errorf("node %s has empty origin", nd.Name)
		}
		if strings.HasPrefix(nd.Origin, "Fold/") {
			wantPrefix[nd.Origin] = true
		}
	}
	for _, origin := range []string{"Fold/load:a", "Fold/load:b", "Fold/F", "Fold/combine"} {
		if !wantPrefix[origin] {
			t.Errorf("no netlist node carries origin %q", origin)
		}
	}
}

// TestNetlistOriginFallsBackToName: hand-written DHDL without SetOrigin still
// yields full provenance (origin == unit name, never empty).
func TestNetlistOriginFallsBackToName(t *testing.T) {
	m, err := CompileOpts(context.Background(), buildDotProgram(1024, 256, 16), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range m.Netlist.Nodes {
		if nd.Origin == "" {
			t.Errorf("node %s has empty origin", nd.Name)
		}
		if !strings.HasPrefix(nd.Origin, nd.Name[:1]) && nd.Origin != nd.Name {
			continue // split parts keep the parent's name prefix; nothing to assert
		}
	}
}

// TestPassTraceRecordsPipeline: a successful compile records every pass of
// the pipeline, in order, with wall times and structured stats.
func TestPassTraceRecordsPipeline(t *testing.T) {
	m, pt, err := compileTraced(context.Background(), buildOriginDot(1024, 256, 16, 1), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if m.Passes != pt {
		t.Fatal("mapping does not reference the returned pass trace")
	}
	want := []string{"validate", "allocate", "partition", "fit-check", "netlist", "place", "route", "timing"}
	if len(pt.Entries) != len(want) {
		t.Fatalf("got %d pass entries, want %d: %v", len(pt.Entries), len(want), pt.String())
	}
	for i, e := range pt.Entries {
		if e.Name != want[i] {
			t.Errorf("pass %d is %q, want %q", i, e.Name, want[i])
		}
		if e.Err != "" {
			t.Errorf("pass %s failed on a fitting program: %s", e.Name, e.Err)
		}
	}
	byName := map[string]*PassEntry{}
	for _, e := range pt.Entries {
		byName[e.Name] = e
	}
	if byName["allocate"].Stats["virtual_pcus"] != 2 {
		t.Errorf("allocate virtual_pcus = %d, want 2", byName["allocate"].Stats["virtual_pcus"])
	}
	if byName["place"].Stats["wirelength"] <= 0 {
		t.Error("place recorded no wirelength")
	}
	if byName["route"].Stats["routes"] <= 0 {
		t.Error("route recorded no routes")
	}
	hops := false
	for k := range byName["route"].Stats {
		if strings.HasPrefix(k, "route_hops[") {
			hops = true
		}
	}
	if !hops {
		t.Error("route recorded no route-length histogram")
	}
	if pt.TotalNS() <= 0 {
		t.Error("pass trace has no wall time")
	}
}

// TestPassTraceSurvivesFailure: a compile that cannot fit still returns the
// trace up to and including the failing pass.
func TestPassTraceSurvivesFailure(t *testing.T) {
	params := arch.Default()
	params.Chip.Cols, params.Chip.Rows = 2, 2
	m, pt, err := compileTraced(context.Background(), buildOriginDot(1<<16, 256, 16, 8), Options{Params: params})
	if err == nil {
		t.Fatal("expected a fit failure on a 2x2 fabric")
	}
	if m != nil {
		t.Fatal("failed compile returned a mapping")
	}
	if pt == nil || len(pt.Entries) == 0 {
		t.Fatal("failed compile returned no pass trace")
	}
	last := pt.Entries[len(pt.Entries)-1]
	if last.Err == "" {
		t.Errorf("last pass %q has no recorded error", last.Name)
	}
}

// TestExplainNamesOffendingOrigins is the acceptance criterion: on a
// too-large program, Explain names the pattern nodes demanding the resource
// that ran out — structured, never a panic.
func TestExplainNamesOffendingOrigins(t *testing.T) {
	params := arch.Default()
	params.Chip.Cols, params.Chip.Rows = 2, 2
	ex, err := Explain(context.Background(), buildOriginDot(1<<16, 256, 16, 8), params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Fits {
		t.Fatal("2x2 fabric reported as fitting")
	}
	if ex.Resource == "" || ex.Need <= ex.Have {
		t.Fatalf("no structured shortfall: %+v", ex)
	}
	if len(ex.Offenders) == 0 {
		t.Fatal("no offenders named")
	}
	seen := map[string]bool{}
	total := 0
	for _, d := range ex.Offenders {
		seen[d.Origin] = true
		total += d.Units
		if d.Units <= 0 || len(d.Names) == 0 {
			t.Errorf("offender %q has no demand detail: %+v", d.Origin, d)
		}
	}
	if total != ex.Need {
		t.Errorf("offender demand sums to %d, want Need=%d", total, ex.Need)
	}
	found := false
	for origin := range seen {
		if strings.HasPrefix(origin, "Fold/") {
			found = true
		}
	}
	if !found {
		t.Errorf("offenders carry no source-level origins: %v", seen)
	}
	if s := ex.String(); !strings.Contains(s, "demand by source node") {
		t.Errorf("rendered explanation lacks the demand table:\n%s", s)
	}
}

// TestExplainFits: a fitting program reports utilization and the full pass
// trace.
func TestExplainFits(t *testing.T) {
	ex, err := Explain(context.Background(), buildOriginDot(1024, 256, 16, 1), arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Fits {
		t.Fatalf("dot fixture does not fit the default fabric: %s", ex.Err)
	}
	if ex.Util == nil || ex.Util.PCUFrac <= 0 {
		t.Error("fitting explanation has no utilization")
	}
	if ex.Passes == nil || len(ex.Passes.Entries) == 0 {
		t.Error("fitting explanation has no pass trace")
	}
}

// TestRepairExtendsPassTrace: a mid-run repair appends its own entry to the
// mapping's pass trace so compile and repair read as one pipeline.
func TestRepairExtendsPassTrace(t *testing.T) {
	m := compileDot(t)
	before := len(m.Passes.Entries)
	victim := pickOccupied(t, m, NodePCU)
	plan := fault.ManualPlan([]fault.Coord{{X: victim.X, Y: victim.Y}}, nil, nil, nil)
	if _, err := Repair(context.Background(), m, plan); err != nil {
		t.Fatal(err)
	}
	if len(m.Passes.Entries) != before+1 {
		t.Fatalf("repair appended %d entries, want 1", len(m.Passes.Entries)-before)
	}
	e := m.Passes.Entries[before]
	if e.Name != "repair" {
		t.Fatalf("appended pass is %q, want repair", e.Name)
	}
	if e.Stats["moved_pcus"] != 1 {
		t.Errorf("repair stats moved_pcus = %d, want 1", e.Stats["moved_pcus"])
	}
	// Provenance survives the move: the victim keeps its origin.
	if victim.Origin == "" {
		t.Error("moved node lost its origin")
	}
}

// TestSummaryIncludesOrigin: the human-readable mapping summary names the
// originating source node next to physical coordinates.
func TestSummaryIncludesOrigin(t *testing.T) {
	m, err := CompileOpts(context.Background(), buildOriginDot(1024, 256, 16, 1), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	if !strings.Contains(s, "Fold/F") {
		t.Errorf("summary lacks source origins:\n%s", s)
	}
}
