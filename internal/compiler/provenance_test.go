package compiler

import (
	"context"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
	"plasticine/internal/metrics"
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

// compileSpans compiles p under a root span and returns the compile
// span's snapshot (nil when the compile recorded none).
func compileSpans(t *testing.T, p *dhdl.Program, params arch.Params) (*Mapping, *metrics.Span, error) {
	t.Helper()
	ctx, root := metrics.Start(context.Background(), "test")
	m, err := CompileOpts(ctx, p, Options{Params: params})
	root.End()
	snap := root.Snapshot()
	if len(snap.Children) != 1 || snap.Children[0].Name != "compile" {
		t.Fatalf("compile recorded %+v under its caller, want one compile span", snap.Children)
	}
	return m, snap.Children[0], err
}

// TestPassTraceRecordsPipeline: a successful compile records every pass
// of the pipeline as a child of its compile span, in order, inside it, with
// wall times and structured stats.
func TestPassTraceRecordsPipeline(t *testing.T) {
	_, sp, err := compileSpans(t, buildOriginDot(1024, 256, 16, 1), arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Detail != "dot" || sp.Err != "" || sp.DurUS <= 0 {
		t.Errorf("compile span = %+v, want the program name and a duration", sp)
	}
	want := []string{"validate", "allocate", "partition", "fit-check", "netlist", "place", "route", "timing"}
	if len(sp.Children) != len(want) {
		t.Fatalf("got %d pass spans, want %d:\n%s", len(sp.Children), len(want), FormatPasses(sp))
	}
	byName := map[string]*metrics.Span{}
	end := sp.StartUS
	for i, e := range sp.Children {
		if e.Name != want[i] {
			t.Errorf("pass %d is %q, want %q", i, e.Name, want[i])
		}
		if e.Err != "" {
			t.Errorf("pass %s failed on a fitting program: %s", e.Name, e.Err)
		}
		if e.StartUS < end || e.StartUS+e.DurUS > sp.StartUS+sp.DurUS {
			t.Errorf("pass %s [%v, +%v] overlaps its predecessor or leaves compile [%v, +%v]",
				e.Name, e.StartUS, e.DurUS, sp.StartUS, sp.DurUS)
		}
		end = e.StartUS + e.DurUS
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
}

// TestPassTraceSurvivesFailure: a compile that cannot fit still records
// its passes up to and including the failing one, and the compile span
// carries the error.
func TestPassTraceSurvivesFailure(t *testing.T) {
	params := arch.Default()
	params.Chip.Cols, params.Chip.Rows = 2, 2
	m, sp, err := compileSpans(t, buildOriginDot(1<<16, 256, 16, 8), params)
	if err == nil {
		t.Fatal("expected a fit failure on a 2x2 fabric")
	}
	if m != nil {
		t.Fatal("failed compile returned a mapping")
	}
	if len(sp.Children) == 0 {
		t.Fatal("failed compile recorded no passes")
	}
	last := sp.Children[len(sp.Children)-1]
	if last.Err == "" {
		t.Errorf("last pass %q has no recorded error", last.Name)
	}
	if sp.Err != err.Error() {
		t.Errorf("compile span error = %q, want %q", sp.Err, err)
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
	if ex.Compile == nil || ex.Compile.Name != "compile" || len(ex.Compile.Children) != 8 {
		t.Fatalf("fitting explanation has no compile span with eight passes: %+v", ex.Compile)
	}
	if s := ex.String(); !strings.Contains(s, "compile passes: dot") || !strings.Contains(s, "route_hops[") {
		t.Errorf("rendered explanation lacks the pass table:\n%s", s)
	}
}

// TestRepairExtendsPassTrace: a mid-run repair records its own span under the
// caller's (the simulator's sim span during a run), with its report as the
// summary and its counts as stats.
func TestRepairExtendsPassTrace(t *testing.T) {
	m := compileDot(t)
	victim := pickOccupied(t, m, NodePCU)
	plan := fault.ManualPlan([]fault.Coord{{X: victim.X, Y: victim.Y}}, nil, nil, nil)
	ctx, simSpan := metrics.Start(context.Background(), "sim")
	rep, err := Repair(ctx, m, plan)
	if err != nil {
		t.Fatal(err)
	}
	simSpan.End()
	snap := simSpan.Snapshot()
	if len(snap.Children) != 1 {
		t.Fatalf("repair recorded %d spans under sim, want 1", len(snap.Children))
	}
	e := snap.Children[0]
	if e.Name != "repair" || e.Detail != rep.String() {
		t.Fatalf("recorded span = %+v, want repair with its report", e)
	}
	if e.Stats["moved_pcus"] != 1 || e.Stats["full_recompile"] != 0 {
		t.Errorf("repair stats = %v, want moved_pcus=1 full_recompile=0", e.Stats)
	}
	if len(e.Children) != 0 {
		t.Errorf("incremental repair recorded children: %+v", e.Children)
	}
	// Provenance survives the move: the victim keeps its origin.
	if victim.Origin == "" {
		t.Error("moved node lost its origin")
	}
}

// TestFullRecompileNestsUnderRepair: when the incremental rungs fail, the
// recompile's compile span and its passes nest under the repair span.
func TestFullRecompileNestsUnderRepair(t *testing.T) {
	m := compileDot(t)
	ctx, simSpan := metrics.Start(context.Background(), "sim")
	if _, err := Repair(ctx, m, allPCUsDead(m.Params)); err == nil {
		t.Fatal("repair succeeded with every PCU tile dead")
	}
	simSpan.End()
	snap := simSpan.Snapshot()
	if len(snap.Children) != 1 || snap.Children[0].Name != "repair" {
		t.Fatalf("sim holds %+v, want one repair span", snap.Children)
	}
	rep := snap.Children[0]
	if rep.Stats["full_recompile"] != 1 || rep.Err == "" {
		t.Errorf("repair span = %+v, want a failed full recompile", rep)
	}
	if len(rep.Children) != 1 || rep.Children[0].Name != "compile" {
		t.Fatalf("repair holds %+v, want the recompile's compile span", rep.Children)
	}
	var names []string
	for _, p := range rep.Children[0].Children {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, ","); got != "validate,allocate,partition,fit-check" {
		t.Errorf("recompile passes = %s, want validate..fit-check (where it ran out of PCUs)", got)
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
