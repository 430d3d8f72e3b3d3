package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"plasticine/internal/trace"
)

// armUnits assigns each checkpoint-graph activity its own physical unit and
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
// test for mid-run recovery: a profile taken after checkpoint/encode/decode/
// restore must be byte-identical to one from an uninterrupted run.
func TestProfileCounterFidelityAcrossCheckpoint(t *testing.T) {
	ref := ckptEngine(buildCkptGraph(), ckptFaults())
	refCol := armUnits(ref)
	if _, err := ref.run(); err != nil {
		t.Fatal(err)
	}
	ref.emitTrace(nil, nil)
	want, err := refCol.CountersJSON("ckpt")
	if err != nil {
		t.Fatal(err)
	}

	paused := ckptEngine(buildCkptGraph(), ckptFaults())
	armUnits(paused)
	done, err := paused.runUntil(1500)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("graph finished before the pause point; enlarge it")
	}
	dec, err := DecodeCheckpoint(paused.checkpoint().Encode())
	if err != nil {
		t.Fatal(err)
	}

	resumed := ckptEngine(buildCkptGraph(), ckptFaults())
	resCol := armUnits(resumed)
	if err := resumed.restore(dec); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.run(); err != nil {
		t.Fatal(err)
	}
	resumed.emitTrace(nil, nil)
	got, err := resCol.CountersJSON("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("profile after checkpoint/restore differs from uninterrupted run:\n--- uninterrupted\n%s\n--- restored\n%s", want, got)
	}
}

// TestOldCheckpointVersionRejected forges a v1 snapshot (valid CRC, old
// version field) and demands a clear versioned error, never a panic.
func TestOldCheckpointVersionRejected(t *testing.T) {
	paused := ckptEngine(buildCkptGraph(), ckptFaults())
	if _, err := paused.runUntil(1000); err != nil {
		t.Fatal(err)
	}
	enc := paused.checkpoint().Encode()

	old := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(old[4:8], 1) // layout: magic | version | payload | crc
	binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.ChecksumIEEE(old[:len(old)-4]))

	cp, err := DecodeCheckpoint(old)
	if cp != nil || err == nil {
		t.Fatal("v1 checkpoint decoded without error")
	}
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("want ErrBadCheckpoint, got %v", err)
	}
	for _, needle := range []string{"version 1", "2"} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("error %q does not name %q", err, needle)
		}
	}
}

// TestWatchdogDiagnosticTopStalled checks the livelock dump ranks stalled
// units with a stall cause from the observability taxonomy.
func TestWatchdogDiagnosticTopStalled(t *testing.T) {
	e := ckptEngine(buildCkptGraph(), nil)
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
	plain := ckptEngine(buildCkptGraph(), ckptFaults())
	mk1, err := plain.run()
	if err != nil {
		t.Fatal(err)
	}
	armed := ckptEngine(buildCkptGraph(), ckptFaults())
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
				e := ckptEngine(buildCkptGraph(), nil)
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
