package sim

import (
	"reflect"
	"testing"

	"plasticine/internal/dhdl"
	"plasticine/internal/dram"
)

// buildPauseGraph constructs a deterministic load → compute → store graph
// with enough bursts to stay mid-flight for thousands of cycles. Calling it
// twice yields two independent but identical graphs.
func buildPauseGraph() []*activity {
	load := stridedBursts(&activity{id: 0, kind: actTransfer, fill: 4,
		leaf: &dhdl.Controller{Name: "load"}}, 512, 64)
	load2 := stridedBursts(&activity{id: 1, kind: actTransfer, fill: 4,
		leaf: &dhdl.Controller{Name: "load2"}}, 512, 128)
	comp := &activity{id: 2, kind: actCompute, dur: 700, fill: 9,
		leaf: &dhdl.Controller{Name: "dot"}}
	comp.addDep(load, fillToStart)
	comp.addDep(load2, endToStart)
	store := stridedBursts(&activity{id: 3, kind: actTransfer, fill: 4, write: true,
		leaf: &dhdl.Controller{Name: "store"}}, 256, 64)
	store.addDep(comp, endToStart)
	return []*activity{load, load2, comp, store}
}

func pauseEngine(acts []*activity, faults *dram.Faults) *engine {
	ddr := dram.New(dram.DDR3_1600x4())
	if err := ddr.InjectFaults(faults); err != nil {
		panic(err)
	}
	return &engine{acts: acts, dram: ddr, stallWindow: defaultStallWindow, loop: eventLoop}
}

func pauseFaults() *dram.Faults {
	return &dram.Faults{Seed: 77, SpikeProb: 0.1, SpikeCycles: 40,
		TransientProb: 0.05, MaxRetries: 3, RetryBackoff: 16}
}

// pauseAt runs e to cycle stopAt and requires it to stop there with a
// transfer still mid-flight.
func pauseAt(t *testing.T, e *engine, stopAt int64) {
	t.Helper()
	done, err := e.runUntil(stopAt)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("graph finished before the pause point; enlarge it")
	}
	if e.clock != stopAt {
		t.Fatalf("paused at cycle %d, want %d", e.clock, stopAt)
	}
	if len(e.running) == 0 {
		t.Fatal("pause point has no transfer mid-flight; test is vacuous")
	}
}

// TestCheckpointRoundTripMidRun pauses a run mid-flight and runs the same
// engine on: the makespan, every activity's [start, end] and the DRAM
// counters (whole-system and per channel) must be those of a run that never
// paused.
func TestCheckpointRoundTripMidRun(t *testing.T) {
	ref := pauseEngine(buildPauseGraph(), pauseFaults())
	wantMk, err := ref.run()
	if err != nil {
		t.Fatal(err)
	}
	resumed := pauseEngine(buildPauseGraph(), pauseFaults())
	pauseAt(t, resumed, 1500)
	gotMk, err := resumed.run()
	if err != nil {
		t.Fatal(err)
	}
	if gotMk != wantMk {
		t.Errorf("paused run makespan %d, uninterrupted %d", gotMk, wantMk)
	}
	for i, a := range resumed.acts {
		want := ref.acts[i]
		if a.start != want.start || a.end != want.end {
			t.Errorf("%s: paused [%d,%d], uninterrupted [%d,%d]",
				actLabel(a), a.start, a.end, want.start, want.end)
		}
	}
	if resumed.dram.Stats() != ref.dram.Stats() {
		t.Errorf("paused DRAM stats diverge:\n%+v\n%+v", resumed.dram.Stats(), ref.dram.Stats())
	}
	if got, want := resumed.dram.ChannelStats(), ref.dram.ChannelStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("paused DRAM channel stats diverge:\n%+v\n%+v", got, want)
	}
}

func TestDrainInFlightReachesQuiescence(t *testing.T) {
	e := pauseEngine(buildPauseGraph(), nil)
	pauseAt(t, e, 300)
	if e.quiescent() {
		t.Fatal("engine quiescent before the drain while bursts were in flight")
	}
	cost, err := e.drainInFlight()
	if err != nil {
		t.Fatal(err)
	}
	if !e.quiescent() {
		t.Error("engine not quiescent after drain")
	}
	if cost <= 0 {
		t.Errorf("drain cost %d cycles, want > 0 with bursts in flight", cost)
	}
}
