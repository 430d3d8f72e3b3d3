package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

// checkInvariant asserts the exact cycle-accounting identity for every unit.
func checkInvariant(t *testing.T, r *Report) {
	t.Helper()
	for i := range r.Units {
		u := &r.Units[i]
		if got := u.Busy + u.StallTotal() + u.Idle; got != u.Total {
			t.Errorf("%s: busy %d + stalls %d + idle %d = %d, want total %d",
				u.Name, u.Busy, u.StallTotal(), u.Idle, got, u.Total)
		}
		if u.Stalls[CauseNone] != 0 {
			t.Errorf("%s: CauseNone bucket %d, want 0 (that bucket is Idle)", u.Name, u.Stalls[CauseNone])
		}
	}
}

func TestReportCycleAccountingExact(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "mac#0", "", UnitCompute)
	c.RegisterUnit(1, "loadA", "", UnitTransfer)
	// Unit 0: [10,40) busy, gap [0,10) input-starved; [60,80) busy,
	// gap [40,60) output-backpressured; tail [80,100) idle.
	c.Slice(0, "mac", 10, 40, 30, CauseInputStarved)
	c.Slice(0, "mac", 60, 80, 20, CauseOutputBackpressure)
	// Unit 1: transfer [0,50) with 20 busy cycles (30 dram-wait inside the
	// interval); tail [50,100) idle.
	c.Slice(1, "loadA", 0, 50, 20, CauseNone)
	c.Finish(100)

	r := c.Report()
	checkInvariant(t, r)
	u0 := r.Units[0]
	if u0.Busy != 50 || u0.Stalls[CauseInputStarved] != 10 ||
		u0.Stalls[CauseOutputBackpressure] != 20 || u0.Idle != 20 {
		t.Errorf("unit 0 buckets wrong: %+v", u0)
	}
	u1 := r.Units[1]
	if u1.Busy != 20 || u1.Stalls[CauseDRAMWait] != 30 || u1.Idle != 50 {
		t.Errorf("unit 1 buckets wrong: %+v", u1)
	}
}

func TestReportWindowsClaimGaps(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "u", "", UnitCompute)
	c.Slice(0, "a", 0, 10, 10, CauseNone)
	c.Slice(0, "b", 50, 60, 10, CauseInputStarved)
	// The drain window [20,30) and reconfig [30,35) overlap the [10,50) gap:
	// 10 drain? no — window is [20,30) = 10 cycles drain, 5 reconfig, the
	// remaining 25 gap cycles stay input-starved.
	c.Window(CauseDrain, 20, 30)
	c.Window(CauseReconfig, 30, 35)
	c.Finish(60)

	r := c.Report()
	checkInvariant(t, r)
	u := r.Units[0]
	if u.Stalls[CauseDrain] != 10 || u.Stalls[CauseReconfig] != 5 {
		t.Errorf("windows not claimed: drain %d reconfig %d", u.Stalls[CauseDrain], u.Stalls[CauseReconfig])
	}
	if u.Stalls[CauseInputStarved] != 25 {
		t.Errorf("gap remainder %d, want 25", u.Stalls[CauseInputStarved])
	}
}

func TestCollectorClampsBadInput(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "u", "", UnitCompute)
	c.Slice(7, "out-of-range", 0, 10, 5, CauseNone) // ignored
	c.Slice(0, "inverted", 20, 10, 99, CauseNone)   // end<start -> empty, busy clamped
	c.FIFOHighWater(7, 100)                         // ignored
	c.Finish(20)
	r := c.Report()
	checkInvariant(t, r)
	if len(r.Units) != 1 {
		t.Fatalf("%d units, want 1", len(r.Units))
	}
	if r.Units[0].Busy != 0 || r.Units[0].Idle != 20 {
		t.Errorf("clamped slice leaked cycles: %+v", r.Units[0])
	}
}

func TestClassifyRecoveryBound(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "u", "", UnitCompute)
	c.Slice(0, "a", 0, 50, 50, CauseNone)
	c.Window(CauseDrain, 50, 70) // 20 of 100 >= 10%
	c.Finish(100)
	if r := c.Report(); r.Bottleneck != RecoveryBound {
		t.Errorf("bottleneck %s (%s), want recovery-bound", r.Bottleneck, r.BottleneckWhy)
	}
}

func TestClassifyMemoryBound(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "ag", "", UnitTransfer)
	c.Slice(0, "load", 0, 100, 10, CauseNone) // 90 dram-wait vs 10 busy
	c.Finish(100)
	if r := c.Report(); r.Bottleneck != MemoryBound {
		t.Errorf("bottleneck %s (%s), want memory-bound", r.Bottleneck, r.BottleneckWhy)
	}
}

func TestClassifyNetworkBound(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "u", "", UnitCompute)
	c.Slice(0, "a", 0, 100, 100, CauseNone) // fully busy: no stalls
	c.Link("0,0>1,0", 2, 8000, 1)           // 8000 bytes / (100 cycles * 1 B/cyc) >> 75%
	c.Finish(100)
	if r := c.Report(); r.Bottleneck != NetworkBound {
		t.Errorf("bottleneck %s (%s), want network-bound", r.Bottleneck, r.BottleneckWhy)
	}
}

func TestClassifyComputeBound(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "u", "", UnitCompute)
	c.Slice(0, "a", 0, 90, 90, CauseNone)
	c.Finish(100)
	if r := c.Report(); r.Bottleneck != ComputeBound {
		t.Errorf("bottleneck %s (%s), want compute-bound", r.Bottleneck, r.BottleneckWhy)
	}
}

func TestChromeTraceRoundTrips(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "mac#0", "", UnitCompute)
	c.RegisterUnit(1, "loadA", "", UnitTransfer)
	c.Slice(0, "mac", 10, 40, 30, CauseInputStarved)
	c.Slice(1, "loadA", 0, 50, 20, CauseNone)
	c.Window(CauseDrain, 50, 60)
	c.Finish(100)

	data, err := c.ChromeTrace("bench", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(data); err != nil {
		t.Fatal(err)
	}
	var tr ChromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	lastTs := int64(-1)
	complete := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if ev.Ts < lastTs {
			t.Errorf("timestamps not monotonic: %d after %d", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
	}
	if complete != 3 { // two slices + one window
		t.Errorf("%d complete events, want 3", complete)
	}
	// Re-marshal round trip through encoding/json.
	again, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(again); err != nil {
		t.Errorf("re-marshalled trace invalid: %v", err)
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{nil, []byte("{"), []byte(`{"traceEvents":[]}`),
		[]byte(`{"traceEvents":[{"ph":"Q","ts":0}]}`)} {
		if err := ValidateChrome(bad); err == nil {
			t.Errorf("ValidateChrome(%q) accepted invalid input", bad)
		}
	}
}

func TestCountersJSON(t *testing.T) {
	c := NewCollector()
	c.RegisterUnit(0, "u", "", UnitCompute)
	c.Slice(0, "a", 0, 10, 10, CauseNone)
	c.DRAMChannel(0, DRAMChannelCounters{Reads: 5, RowHits: 4, RowMisses: 1})
	c.Finish(10)
	data, err := c.CountersJSON("bench")
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "bench" || len(r.Units) != 1 || len(r.Channels) != 1 {
		t.Errorf("round-tripped report wrong: %+v", r)
	}
	if r.Channels[0].RowHitRate != 0.8 {
		t.Errorf("row hit rate %v, want 0.8", r.Channels[0].RowHitRate)
	}
}

func TestStallCauseStrings(t *testing.T) {
	want := map[StallCause]string{
		CauseNone: "idle", CauseInputStarved: "input-starved",
		CauseOutputBackpressure: "output-backpressured", CauseDRAMWait: "dram-wait",
		CauseDrain: "drain", CauseReconfig: "reconfig",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if !strings.Contains(StallCause(99).String(), "99") {
		t.Errorf("out-of-range cause renders %q", StallCause(99).String())
	}
}
