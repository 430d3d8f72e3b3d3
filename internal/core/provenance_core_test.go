package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/fault"
	"plasticine/internal/metrics"
	"plasticine/internal/trace"
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

// TestProfileCarriesCompilePasses: a profiled run keeps its evaluation's
// span tree — the compile span with its passes, the functional phase
// (build, interpret and check) on the session's first profile of the
// benchmark or one memo span on a later one, and sim with the graph build
// and the engine below it — and ships it on the Chrome trace's compiler
// track.
func TestProfileCarriesCompilePasses(t *testing.T) {
	sess := NewSession()
	for _, want := range []string{"compile,build,interpret,check,sim", "compile,memo,sim"} {
		p, err := sess.Profile(context.Background(), workloads.NewInnerProduct())
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		var compile, sim *metrics.Span
		for _, sp := range p.Spans.Children {
			names = append(names, sp.Name)
			switch sp.Name {
			case "compile":
				compile = sp
			case "sim":
				sim = sp
			}
		}
		if p.Spans.Name != "profile" || strings.Join(names, ",") != want {
			t.Fatalf("profile span %q holds %v, want %s", p.Spans.Name, names, want)
		}
		if n := len(compile.Children); n != 8 {
			t.Fatalf("compile span holds %d passes, want 8", n)
		}
		if got := spanNames(sim); got != "graph,engine" {
			t.Fatalf("sim span holds %s, want graph,engine", got)
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
		if rows := compiler.FormatPasses(p.Spans); !strings.Contains(rows, "  route ") {
			t.Errorf("pass table lacks the route row:\n%s", rows)
		}
	}
}

// TestChromeCompilerTrackAtRecordedOffsets: profiling InnerProduct under a
// mid-run PCU kill draws the evaluation's spans on the Chrome trace's
// compiler process at their recorded offsets: the passes inside compile,
// and repair inside sim — after the functional trace, not flush after the
// last pass.
func TestChromeCompilerTrackAtRecordedOffsets(t *testing.T) {
	spec, err := fault.ParseSpec("kill-pcu@2000")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NewPlan(spec, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSession(WithFaults(plan)).Profile(context.Background(), workloads.NewInnerProduct())
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatal(err)
	}
	var doc trace.ChromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	type interval struct{ from, to int64 }
	var got []string
	at := map[string]interval{}
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 1 || ev.Ph != "X" {
			continue
		}
		got = append(got, ev.Name)
		at[ev.Name] = interval{ev.Ts, ev.Ts + ev.Dur}
	}
	// The events are the span tree, depth first, each at its recorded
	// offset from the profile span's start.
	var want []string
	p.Spans.Walk(func(sp *metrics.Span, _ int) {
		want = append(want, sp.Name)
		from := int64(sp.StartUS - p.Spans.StartUS)
		if iv := at[sp.Name]; iv.from != from {
			t.Errorf("%s drawn at %dus, recorded at %dus", sp.Name, iv.from, from)
		}
	})
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("compiler-process events %v, want the span tree %v", got, want)
	}
	inside := func(child, parent string) {
		t.Helper()
		c, p := at[child], at[parent]
		if c.from < p.from || c.to > p.to {
			t.Errorf("%s [%d, %d] lies outside %s [%d, %d]", child, c.from, c.to, parent, p.from, p.to)
		}
	}
	for _, pass := range []string{"validate", "allocate", "partition", "fit-check", "netlist", "place", "route", "timing"} {
		inside(pass, "compile")
	}
	inside("repair", "sim")
	if at["repair"].from < at["compile"].to {
		t.Errorf("repair starts at %dus, before compile ends at %dus", at["repair"].from, at["compile"].to)
	}
}
