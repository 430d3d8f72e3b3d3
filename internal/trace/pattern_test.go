package trace

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"plasticine/internal/metrics"
)

// TestPatternReportSumsToMakespan: the exclusive attribution plus the
// recovery and idle buckets reproduce the makespan exactly, with concurrent
// groups splitting — not double-counting — overlapping time.
func TestPatternReportSumsToMakespan(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "loadA", "Fold/load:a", UnitTransfer)
	c.RegisterUnit(1, "mac#0", "Fold/F", UnitCompute)
	c.RegisterUnit(2, "mac#1", "Fold/F", UnitCompute)
	// loadA: busy 0-40, dram-wait 40-100.
	c.Slice(0, "xfer", 0, 100, 40, CauseNone)
	// macs overlap loadA's stall and each other; copies share one group.
	c.Slice(1, "fire", 50, 150, 100, CauseInputStarved)
	c.Slice(2, "fire", 60, 140, 80, CauseInputStarved)
	c.Finish(200)

	pr := c.PatternReport("dot")
	if pr.TotalCycles != 200 {
		t.Fatalf("total = %d, want 200", pr.TotalCycles)
	}
	if got := pr.AttributedTotal(); got != 200 {
		t.Fatalf("attributed total = %d, want exactly the makespan 200", got)
	}
	if len(pr.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (loadA, Fold/F): %+v", len(pr.Rows), pr.Rows)
	}
	byOrigin := map[string]*PatternRow{}
	for i := range pr.Rows {
		byOrigin[pr.Rows[i].Origin] = &pr.Rows[i]
	}
	load, f := byOrigin["Fold/load:a"], byOrigin["Fold/F"]
	if load == nil || f == nil {
		t.Fatalf("missing origin rows: %+v", pr.Rows)
	}
	if f.Units != 2 {
		t.Errorf("Fold/F spans %d units, want 2 unroll copies", f.Units)
	}
	// loadA owns its busy interval [0,40) (registered first, so it also wins
	// no contested segments here) plus its dram-wait [40,50) until a mac
	// turns busy; macs own [50,150); [150,200) is idle.
	if load.Attributed != 50 {
		t.Errorf("loadA attributed %d, want 50", load.Attributed)
	}
	if load.AttrBusy != 40 || load.AttrStall != 10 {
		t.Errorf("loadA split busy/stall = %d/%d, want 40/10", load.AttrBusy, load.AttrStall)
	}
	if f.Attributed != 100 {
		t.Errorf("Fold/F attributed %d, want 100 (the two macs overlap)", f.Attributed)
	}
	if pr.Idle != 50 {
		t.Errorf("idle = %d, want 50", pr.Idle)
	}
}

// TestPatternReportBusyBeatsStall: a segment where one group is busy and
// another merely stalled goes to the busy group.
func TestPatternReportBusyBeatsStall(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "ag", "load", UnitTransfer)
	c.RegisterUnit(1, "pcu", "body", UnitCompute)
	c.Slice(0, "xfer", 0, 100, 10, CauseNone) // stalled 10-100
	c.Slice(1, "fire", 20, 80, 60, CauseNone) // busy 20-80
	c.Finish(100)
	pr := c.PatternReport("t")
	byOrigin := map[string]*PatternRow{}
	for i := range pr.Rows {
		byOrigin[pr.Rows[i].Origin] = &pr.Rows[i]
	}
	if got := byOrigin["body"].Attributed; got != 60 {
		t.Errorf("busy group attributed %d, want the full 60-cycle busy window", got)
	}
	if got := byOrigin["load"].Attributed; got != 40 {
		t.Errorf("stalled group attributed %d, want 40 (10 busy + 30 uncontested stall)", got)
	}
	if pr.AttributedTotal() != 100 {
		t.Errorf("attribution does not cover the makespan: %d", pr.AttributedTotal())
	}
}

// TestPatternReportRecoveryWindows: fabric-wide windows claim their span
// before any group does.
func TestPatternReportRecoveryWindows(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "u", "body", UnitCompute)
	c.Slice(0, "fire", 0, 100, 100, CauseNone)
	c.Window(CauseReconfig, 40, 60)
	c.Finish(100)
	pr := c.PatternReport("t")
	if pr.Recovery != 20 {
		t.Errorf("recovery = %d, want 20", pr.Recovery)
	}
	if got := pr.Rows[0].Attributed; got != 80 {
		t.Errorf("body attributed %d, want 80 (window carved out)", got)
	}
	if pr.AttributedTotal() != 100 {
		t.Errorf("attribution does not cover the makespan: %d", pr.AttributedTotal())
	}
}

// TestPatternRowAggregatesMatchUnitProfiles is the round-trip guarantee: a
// group's Busy/Stalls/Idle aggregates equal the sums over its member units'
// profiles from Report().
func TestPatternRowAggregatesMatchUnitProfiles(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "loadA", "Fold/load:a", UnitTransfer)
	c.RegisterUnit(1, "mac#0", "Fold/F", UnitCompute)
	c.RegisterUnit(2, "mac#1", "Fold/F", UnitCompute)
	c.Slice(0, "xfer", 0, 100, 40, CauseNone)
	c.Slice(1, "fire", 50, 150, 100, CauseInputStarved)
	c.Slice(2, "fire", 60, 140, 80, CauseDrain)
	c.Window(CauseReconfig, 150, 170)
	c.Finish(200)

	rep := c.Report()
	pr := c.PatternReport("dot")
	want := map[string]*PatternRow{}
	for i := range rep.Units {
		u := &rep.Units[i]
		row, ok := want[u.Origin]
		if !ok {
			row = &PatternRow{Origin: u.Origin}
			want[u.Origin] = row
		}
		row.Units++
		row.Busy += u.Busy
		row.Idle += u.Idle
		for cse, v := range u.Stalls {
			row.Stalls[cse] += v
		}
	}
	for i := range pr.Rows {
		got := &pr.Rows[i]
		w := want[got.Origin]
		if w == nil {
			t.Fatalf("row %q has no unit-profile counterpart", got.Origin)
		}
		if got.Units != w.Units || got.Busy != w.Busy || got.Idle != w.Idle || got.Stalls != w.Stalls {
			t.Errorf("row %q aggregates diverge from unit profiles:\n got %+v\nwant %+v",
				got.Origin, got, w)
		}
	}
	if pr.AttributedTotal() != 200 {
		t.Errorf("attribution does not cover the makespan: %d", pr.AttributedTotal())
	}
}

// TestPatternReportEmptyOriginFallsBack: units registered without origins
// group under their own names.
func TestPatternReportEmptyOriginFallsBack(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "solo", "", UnitCompute)
	c.Slice(0, "fire", 0, 50, 50, CauseNone)
	c.Finish(50)
	pr := c.PatternReport("t")
	if len(pr.Rows) != 1 || pr.Rows[0].Origin != "solo" {
		t.Fatalf("fallback grouping wrong: %+v", pr.Rows)
	}
	if pr.AttributedTotal() != 50 {
		t.Errorf("attribution does not cover the makespan: %d", pr.AttributedTotal())
	}
}

// TestChromeTraceCompileTrack: the host span tree appears as its own
// process, every span at its recorded offset from the tree's start, each
// child inside its parent even where truncation to microseconds bites; the
// emitted document still passes self-validation.
func TestChromeTraceCompileTrack(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "u", "body", UnitCompute)
	c.Slice(0, "fire", 0, 50, 50, CauseNone)
	c.Finish(50)
	host := &metrics.Span{Name: "profile", StartUS: 5, DurUS: 10, Children: []*metrics.Span{
		{Name: "compile", StartUS: 5.5, DurUS: 3, Detail: "t", Children: []*metrics.Span{
			{Name: "allocate", StartUS: 5.6, DurUS: 1.5, Detail: "2 vPCUs"},
			{Name: "place", StartUS: 7.1, DurUS: 1.2},
		}},
		{Name: "sim", StartUS: 9, DurUS: 5, Children: []*metrics.Span{
			{Name: "repair", StartUS: 12, DurUS: 0.8},
		}},
	}}
	data, err := c.ChromeTrace("t", host)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"compiler"`) {
		t.Error("chrome trace lacks the compiler process")
	}
	var doc ChromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string][2]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Pid == 1 && ev.Ph == "X" {
			got[ev.Name] = [2]int64{ev.Ts, ev.Ts + ev.Dur}
		}
	}
	want := map[string][2]int64{
		"profile": {0, 10}, "compile": {0, 3}, "allocate": {0, 2}, "place": {2, 3},
		"sim": {4, 9}, "repair": {7, 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("compiler-process events [ts, ts+dur] = %v, want %v", got, want)
	}
}
