package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"plasticine/internal/trace"
)

// armUnits assigns each pause-graph activity its own physical unit and
// arms a Collector on the engine, mirroring what the builder does for
// compiled programs.
func armUnits(e *engine) *trace.Collector {
	for i, a := range e.acts {
		a.unit = i
		kind := trace.UnitTransfer
		if a.kind == actCompute {
			kind = trace.UnitCompute
		}
		e.units = append(e.units, simUnit{name: actLabel(a), kind: kind})
	}
	col := trace.NewCollector()
	e.rec = col
	return col
}

// TestProfileCounterFidelityAcrossCheckpoint is the observability acceptance
// test for mid-run recovery: a profile of a run that paused mid-flight and
// ran on must be byte-identical to one from an uninterrupted run.
func TestProfileCounterFidelityAcrossCheckpoint(t *testing.T) {
	ref := pauseEngine(buildPauseGraph(), pauseFaults())
	refCol := armUnits(ref)
	if _, err := ref.run(); err != nil {
		t.Fatal(err)
	}
	ref.emitTrace(nil, nil)
	want, err := refCol.CountersJSON("pause")
	if err != nil {
		t.Fatal(err)
	}

	resumed := pauseEngine(buildPauseGraph(), pauseFaults())
	resCol := armUnits(resumed)
	pauseAt(t, resumed, 1500)
	if _, err := resumed.run(); err != nil {
		t.Fatal(err)
	}
	resumed.emitTrace(nil, nil)
	got, err := resCol.CountersJSON("pause")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("profile of the paused run differs from uninterrupted run:\n--- uninterrupted\n%s\n--- paused\n%s", want, got)
	}
}

// TestWatchdogDiagnosticTopStalled checks the livelock dump ranks stalled
// units with a stall cause from the observability taxonomy.
func TestWatchdogDiagnosticTopStalled(t *testing.T) {
	e := pauseEngine(buildPauseGraph(), nil)
	armUnits(e)
	if _, err := e.runUntil(300); err != nil {
		t.Fatal(err)
	}
	w := e.diagnostic("probe")
	if len(w.TopStalled) == 0 {
		t.Fatal("mid-run diagnostic has no stalled units")
	}
	if len(w.TopStalled) > 5 {
		t.Errorf("%d stalled units listed, cap is 5", len(w.TopStalled))
	}
	for i, u := range w.TopStalled {
		if u.Name == "" || u.Cause == "" {
			t.Errorf("stalled unit %d incomplete: %+v", i, u)
		}
		if u.StalledFor < 0 {
			t.Errorf("%s stalled for negative cycles: %d", u.Name, u.StalledFor)
		}
		if i > 0 && u.StalledFor > w.TopStalled[i-1].StalledFor {
			t.Error("TopStalled not sorted by stall length")
		}
	}
	// The store unit waits behind the compute: input starvation, not DRAM.
	for _, u := range w.TopStalled {
		if u.Name == "store" && u.Cause != trace.CauseInputStarved.String() {
			t.Errorf("store's cause %q, want input-starved (waits on compute)", u.Cause)
		}
	}
	if msg := w.Error(); !strings.Contains(msg, "most-stalled units:") {
		t.Errorf("diagnostic rendering lacks the stalled-unit dump:\n%s", msg)
	}
}

// TestEndToEndProfileInvariant runs a real compiled program with the Recorder
// armed and checks the paper-table invariant plus Chrome-trace validity.
func TestEndToEndProfileInvariant(t *testing.T) {
	m, total, want := dotSetup(t, 4096, 512, true)
	col := trace.NewCollector()
	res, st, err := Simulate(context.Background(), m, Options{Recorder: col})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(st.RegValue(total).F); got != want {
		t.Fatalf("functional result %v, want %v", got, want)
	}
	rep := col.Report()
	if rep.TotalCycles != res.Cycles {
		t.Errorf("report covers %d cycles, run took %d", rep.TotalCycles, res.Cycles)
	}
	if len(rep.Units) == 0 {
		t.Fatal("no units registered")
	}
	var sawBusy, sawAG, sawPCU bool
	for i := range rep.Units {
		u := &rep.Units[i]
		if got := u.Busy + u.StallTotal() + u.Idle; got != u.Total {
			t.Errorf("%s: busy+stalls+idle = %d, want %d", u.Name, got, u.Total)
		}
		sawBusy = sawBusy || u.Busy > 0
		sawAG = sawAG || u.Kind == "ag"
		sawPCU = sawPCU || u.Kind == "pcu"
	}
	if !sawBusy || !sawAG || !sawPCU {
		t.Errorf("profile missing work: busy=%v ag=%v pcu=%v", sawBusy, sawAG, sawPCU)
	}
	if rep.Bottleneck == "" || rep.BottleneckWhy == "" {
		t.Error("no bottleneck named")
	}
	if len(rep.Channels) == 0 {
		t.Error("no DRAM channel counters")
	}
	if len(rep.Links) == 0 {
		t.Error("no link utilization recorded")
	}
	data, err := col.ChromeTrace("dot", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Errorf("Chrome trace invalid: %v", err)
	}
}

// TestNilRecorderUnchanged confirms the default path (no Recorder) still
// produces the same makespan as an armed run: tracing must observe, never
// perturb.
func TestNilRecorderUnchanged(t *testing.T) {
	plain := pauseEngine(buildPauseGraph(), pauseFaults())
	mk1, err := plain.run()
	if err != nil {
		t.Fatal(err)
	}
	armed := pauseEngine(buildPauseGraph(), pauseFaults())
	armUnits(armed)
	mk2, err := armed.run()
	if err != nil {
		t.Fatal(err)
	}
	if mk1 != mk2 {
		t.Errorf("armed recorder changed the makespan: %d vs %d", mk2, mk1)
	}
}

// BenchmarkRecorderOverhead measures the hot-loop cost of the observability
// subsystem: the same schedule with the Recorder off and on (acceptance
// criterion: armed within ~2% of off).
func BenchmarkRecorderOverhead(b *testing.B) {
	for _, armed := range []bool{false, true} {
		name := "off"
		if armed {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := pauseEngine(buildPauseGraph(), nil)
				if armed {
					armUnits(e)
				}
				if _, err := e.run(); err != nil {
					b.Fatal(err)
				}
				e.emitTrace(nil, nil)
			}
		})
	}
}
