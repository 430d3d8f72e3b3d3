package sim

import (
	"errors"
	"strings"
	"testing"

	"plasticine/internal/dhdl"
	"plasticine/internal/dram"
)

func newTestEngine(acts []*activity) *engine {
	return &engine{acts: acts, dram: dram.New(dram.DDR3_1600x4()), stallWindow: defaultStallWindow, loop: eventLoop}
}

func TestEngineComputeChain(t *testing.T) {
	a := &activity{id: 0, kind: actCompute, dur: 10, fill: 4}
	b := &activity{id: 1, kind: actCompute, dur: 5, fill: 2}
	b.addDep(a, endToStart)
	mk, err := newTestEngine([]*activity{a, b}).run()
	if err != nil {
		t.Fatal(err)
	}
	if a.end != 10 || b.start != 10 || b.end != 15 || mk != 15 {
		t.Errorf("a=[%d,%d] b=[%d,%d] makespan=%d", a.start, a.end, b.start, b.end, mk)
	}
}

func TestEngineFillToStartOverlapsStreaming(t *testing.T) {
	// A streaming consumer starts once the producer's pipeline fills, not
	// when it drains.
	p := &activity{id: 0, kind: actCompute, dur: 100, fill: 8}
	c := &activity{id: 1, kind: actCompute, dur: 100, fill: 8}
	c.addDep(p, fillToStart)
	mk, err := newTestEngine([]*activity{p, c}).run()
	if err != nil {
		t.Fatal(err)
	}
	if c.start != 8 {
		t.Errorf("consumer started at %d, want 8 (producer fill)", c.start)
	}
	if mk != 108 {
		t.Errorf("makespan = %d, want 108 (rate-matched overlap)", mk)
	}
}

func TestEngineBarrierTakesMaxOfMembers(t *testing.T) {
	a := &activity{id: 0, kind: actCompute, dur: 30}
	b := &activity{id: 1, kind: actCompute, dur: 70}
	bar := &activity{id: 2, kind: actBarrier}
	bar.addDep(a, endToStart)
	bar.addDep(b, endToStart)
	c := &activity{id: 3, kind: actCompute, dur: 10}
	c.addDep(bar, endToStart)
	mk, err := newTestEngine([]*activity{a, b, bar, c}).run()
	if err != nil {
		t.Fatal(err)
	}
	if c.start != 70 || mk != 80 {
		t.Errorf("c.start=%d makespan=%d, want 70/80", c.start, mk)
	}
}

func TestEngineDetectsDeadlock(t *testing.T) {
	a := &activity{id: 0, kind: actCompute, dur: 1}
	b := &activity{id: 1, kind: actCompute, dur: 1}
	a.addDep(b, endToStart)
	b.addDep(a, endToStart)
	_, err := newTestEngine([]*activity{a, b}).run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected deadlock error, got %v", err)
	}
}

func TestWatchdogAbortsLivelockedSchedule(t *testing.T) {
	// Every DRAM channel is down, so the transfer's bursts can never be
	// submitted: without a watchdog the engine would spin forever. The
	// stall detector must abort within the window and name the stuck
	// activity in its diagnostic.
	ddr := dram.New(dram.DDR3_1600x4())
	if err := ddr.InjectFaults(&dram.Faults{Down: []bool{true, true, true, true}}); err != nil {
		t.Fatal(err)
	}
	a := stridedBursts(&activity{id: 0, kind: actTransfer,
		leaf: &dhdl.Controller{Name: "stuck_load"}}, 3, 64)
	eng := &engine{acts: []*activity{a}, dram: ddr, stallWindow: 5000, loop: eventLoop}
	_, err := eng.run()
	if err == nil {
		t.Fatal("livelocked schedule terminated without error")
	}
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("want ErrWatchdog, got %v", err)
	}
	var w *WatchdogError
	if !errors.As(err, &w) {
		t.Fatalf("want *WatchdogError, got %T", err)
	}
	if w.Resolved != 0 || w.Total != 1 {
		t.Errorf("resolved %d/%d, want 0/1", w.Resolved, w.Total)
	}
	if len(w.Stuck) != 1 || w.Stuck[0].Name != "stuck_load" || w.Stuck[0].Kind != "transfer" {
		t.Errorf("stuck dump = %+v, want the stuck_load transfer", w.Stuck)
	}
	if len(w.InFlight) != 1 || w.InFlight[0].Total != 3 || w.InFlight[0].Completed != 0 {
		t.Errorf("in-flight dump = %+v, want stuck_load with 0/3 bursts", w.InFlight)
	}
	if len(w.DRAMQueues) != 4 {
		t.Errorf("DRAM queue dump has %d channels, want 4", len(w.DRAMQueues))
	}
	if !strings.Contains(err.Error(), "stuck_load") || !strings.Contains(err.Error(), "no forward progress") {
		t.Errorf("diagnostic missing activity name or reason: %v", err)
	}
	// The abort must happen promptly, within the configured window.
	if w.Cycle > 6000 {
		t.Errorf("watchdog tripped at cycle %d, want <= ~5000", w.Cycle)
	}
}

func TestWatchdogCycleBudget(t *testing.T) {
	// A legitimate long transfer aborts once it exceeds the cycle budget.
	a := stridedBursts(&activity{id: 0, kind: actTransfer,
		leaf: &dhdl.Controller{Name: "big_load"}}, 4096, 64)
	eng := &engine{acts: []*activity{a}, dram: dram.New(dram.DDR3_1600x4()), maxCycles: 100,
		stallWindow: defaultStallWindow, loop: eventLoop}
	_, err := eng.run()
	if !errors.Is(err, ErrWatchdog) || !strings.Contains(err.Error(), "cycle budget") {
		t.Fatalf("want cycle-budget watchdog abort, got %v", err)
	}
	// Without a budget the same schedule completes.
	for _, x := range []*activity{a} {
		x.resolved, x.nDepsLeft, x.start, x.end = false, 0, 0, 0
	}
	a.deps, a.dependents = nil, nil
	if _, err := newTestEngine([]*activity{a}).run(); err != nil {
		t.Fatalf("unbudgeted run failed: %v", err)
	}
}

func TestWatchdogDeadlockDiagnostic(t *testing.T) {
	a := &activity{id: 0, kind: actCompute, dur: 1, leaf: &dhdl.Controller{Name: "x"}}
	b := &activity{id: 1, kind: actCompute, dur: 1, leaf: &dhdl.Controller{Name: "y"}}
	a.addDep(b, endToStart)
	b.addDep(a, endToStart)
	_, err := newTestEngine([]*activity{a, b}).run()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("want ErrWatchdog for dependency cycle, got %v", err)
	}
	var w *WatchdogError
	if !errors.As(err, &w) || len(w.Stuck) != 2 {
		t.Fatalf("want both cycle members in diagnostic, got %v", err)
	}
}

func TestEngineTransferContention(t *testing.T) {
	// Two transfers targeting the same channel take about twice as long
	// together as one alone.
	const stride = 64 * 4 // all on channel 0
	solo := stridedBursts(&activity{id: 0, kind: actTransfer}, 256, stride)
	mk1, err := newTestEngine([]*activity{solo}).run()
	if err != nil {
		t.Fatal(err)
	}
	x := stridedBursts(&activity{id: 0, kind: actTransfer}, 256, stride)
	y := stridedBursts(&activity{id: 1, kind: actTransfer}, 256, stride)
	mk2, err := newTestEngine([]*activity{x, y}).run()
	if err != nil {
		t.Fatal(err)
	}
	if float64(mk2) < 1.7*float64(mk1) {
		t.Errorf("two contending transfers took %d vs solo %d; want ~2x", mk2, mk1)
	}
}

func TestEngineEmptyTransferResolves(t *testing.T) {
	a := &activity{id: 0, kind: actTransfer, fill: 8} // zero bursts
	mk, err := newTestEngine([]*activity{a}).run()
	if err != nil {
		t.Fatal(err)
	}
	if mk != 8 {
		t.Errorf("makespan = %d, want 8 (fill only)", mk)
	}
}

func TestActivityDepDedup(t *testing.T) {
	a := &activity{id: 0, kind: actCompute}
	b := &activity{id: 1, kind: actCompute}
	b.addDep(a, endToStart)
	b.addDep(a, endToStart) // duplicate
	b.addDep(b, endToStart) // self
	b.addDep(nil, endToStart)
	if b.nDepsLeft != 1 || len(b.deps) != 1 {
		t.Errorf("deps=%d nDepsLeft=%d, want 1/1", len(b.deps), b.nDepsLeft)
	}
}

// stridedBursts gives transfer a n bursts, stride bytes apart from address
// 0, one row each, and returns it.
func stridedBursts(a *activity, n int, stride uint64) *activity {
	for i := 0; i < n; i++ {
		a.addRow(uint64(i)*stride, 1)
	}
	return a
}
