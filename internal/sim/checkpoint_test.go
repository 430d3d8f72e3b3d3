package sim

import (
	"errors"
	"reflect"
	"testing"

	"plasticine/internal/dhdl"
	"plasticine/internal/dram"
)

// buildCkptGraph constructs a deterministic load → compute → store graph
// with enough bursts to stay mid-flight for thousands of cycles. Calling it
// twice yields two independent but identical graphs.
func buildCkptGraph() []*activity {
	mkBursts := func(n, stride int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i * stride)
		}
		return out
	}
	load := &activity{id: 0, kind: actTransfer, fill: 4,
		leaf: &dhdl.Controller{Name: "load"}, bursts: mkBursts(512, 64)}
	load2 := &activity{id: 1, kind: actTransfer, fill: 4,
		leaf: &dhdl.Controller{Name: "load2"}, bursts: mkBursts(512, 128)}
	comp := &activity{id: 2, kind: actCompute, dur: 700, fill: 9,
		leaf: &dhdl.Controller{Name: "dot"}}
	comp.addDep(load, fillToStart)
	comp.addDep(load2, endToStart)
	store := &activity{id: 3, kind: actTransfer, fill: 4, write: true,
		leaf: &dhdl.Controller{Name: "store"}, bursts: mkBursts(256, 64)}
	store.addDep(comp, endToStart)
	return []*activity{load, load2, comp, store}
}

func ckptEngine(acts []*activity, faults *dram.Faults) *engine {
	ddr := dram.New(dram.DDR3_1600x4())
	if err := ddr.InjectFaults(faults); err != nil {
		panic(err)
	}
	return &engine{acts: acts, dram: ddr, stallWindow: defaultStallWindow, loop: eventLoop}
}

func ckptFaults() *dram.Faults {
	return &dram.Faults{Seed: 77, SpikeProb: 0.1, SpikeCycles: 40,
		TransientProb: 0.05, MaxRetries: 3, RetryBackoff: 16}
}

// pauseCkpt runs a fresh checkpoint-graph engine to cycle stopAt and
// returns it, still mid-flight.
func pauseCkpt(t *testing.T, stopAt int64) *engine {
	t.Helper()
	paused := ckptEngine(buildCkptGraph(), ckptFaults())
	done, err := paused.runUntil(stopAt)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("graph finished before the pause point; enlarge it")
	}
	if paused.clock != stopAt {
		t.Fatalf("paused at cycle %d, want %d", paused.clock, stopAt)
	}
	return paused
}

// checkResumesLikeUninterrupted restores cp into a fresh engine, runs it to
// the end, and requires the makespan, every activity's [start, end] and the
// DRAM counters (whole-system and per channel) of a run that never paused.
func checkResumesLikeUninterrupted(t *testing.T, cp *Checkpoint) {
	t.Helper()
	ref := ckptEngine(buildCkptGraph(), ckptFaults())
	wantMk, err := ref.run()
	if err != nil {
		t.Fatal(err)
	}
	resumed := ckptEngine(buildCkptGraph(), ckptFaults())
	if err := resumed.restore(cp); err != nil {
		t.Fatal(err)
	}
	gotMk, err := resumed.run()
	if err != nil {
		t.Fatal(err)
	}
	if gotMk != wantMk {
		t.Errorf("restored run makespan %d, uninterrupted %d", gotMk, wantMk)
	}
	for i, a := range resumed.acts {
		want := ref.acts[i]
		if a.start != want.start || a.end != want.end {
			t.Errorf("%s: restored [%d,%d], uninterrupted [%d,%d]",
				actLabel(a), a.start, a.end, want.start, want.end)
		}
	}
	if resumed.dram.Stats() != ref.dram.Stats() {
		t.Errorf("restored DRAM stats diverge:\n%+v\n%+v", resumed.dram.Stats(), ref.dram.Stats())
	}
	if got, want := resumed.dram.ChannelStats(), ref.dram.ChannelStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored DRAM channel stats diverge:\n%+v\n%+v", got, want)
	}
}

func TestCheckpointRoundTripMidRun(t *testing.T) {
	// Pause mid-flight, checkpoint, restore the value into a fresh engine,
	// finish there.
	cp := pauseCkpt(t, 1500).checkpoint()
	if len(cp.Running) == 0 {
		t.Fatal("pause point has no transfer mid-flight; test is vacuous")
	}
	checkResumesLikeUninterrupted(t, cp)
}

// TestCheckpointUnchangedByItsEngine: the engine that took a checkpoint runs
// on to the end, and the checkpoint still resumes a fresh engine exactly
// where it was taken. A checkpoint that shared a slice with its engine would
// resume from the engine's later state instead.
func TestCheckpointUnchangedByItsEngine(t *testing.T) {
	paused := pauseCkpt(t, 1500)
	cp := paused.checkpoint()
	if len(cp.Running) == 0 || len(cp.DRAM.Pending) == 0 {
		t.Fatal("pause point has no transfer or burst in flight; test is vacuous")
	}
	if _, err := paused.run(); err != nil {
		t.Fatal(err)
	}
	checkResumesLikeUninterrupted(t, cp)
}

func TestCheckpointRejectsWrongGraph(t *testing.T) {
	paused := ckptEngine(buildCkptGraph(), nil)
	if _, err := paused.runUntil(500); err != nil {
		t.Fatal(err)
	}
	cp := paused.checkpoint()

	other := buildCkptGraph()
	other[0].bursts = other[0].bursts[:100] // structurally different graph
	e := ckptEngine(other, nil)
	if err := e.restore(cp); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("restore into a different graph: want ErrBadCheckpoint, got %v", err)
	}
}

func TestCheckpointRejectsTagsOfNoRunningTransfer(t *testing.T) {
	paused := ckptEngine(buildCkptGraph(), nil)
	if _, err := paused.runUntil(1500); err != nil {
		t.Fatal(err)
	}
	running := paused.running[0].act.id
	for _, tc := range []struct {
		name string
		tag  int64
	}{
		{"unknown activity", burstTag(99, 0)},
		{"negative activity", -1},
		{"compute activity", burstTag(2, 0)},
		{"burst out of range", burstTag(running, 1<<20)},
	} {
		cp := paused.checkpoint()
		if len(cp.DRAM.Pending) == 0 {
			t.Fatal("no burst in flight at the pause point; test is vacuous")
		}
		cp.DRAM.Pending[0].Tag = tc.tag
		e := ckptEngine(buildCkptGraph(), nil)
		if err := e.restore(cp); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: want ErrBadCheckpoint, got %v", tc.name, err)
		}
	}
}

// isQuiescent reports whether nothing is mid-flight.
func isQuiescent(q QuiesceState) bool {
	for _, t := range q.InFlight {
		if t.InFlight > 0 {
			return false
		}
	}
	for _, n := range q.DRAMQueues {
		if n > 0 {
			return false
		}
	}
	return true
}

func TestDrainInFlightReachesQuiescence(t *testing.T) {
	e := ckptEngine(buildCkptGraph(), nil)
	done, err := e.runUntil(300)
	if err != nil || done {
		t.Fatalf("pause failed: done=%v err=%v", done, err)
	}
	pre, cost, err := e.drainInFlight()
	if err != nil {
		t.Fatal(err)
	}
	if isQuiescent(pre) {
		t.Error("pre-drain state reports quiescent while bursts were in flight")
	}
	if !e.quiescent() {
		t.Error("engine not quiescent after drain")
	}
	if cost <= 0 {
		t.Errorf("drain cost %d cycles, want > 0 with bursts in flight", cost)
	}
	if post := e.quiesceState(); !isQuiescent(post) {
		t.Errorf("post-drain quiesce state not quiescent: %+v", post)
	}
	// The drain's pre-state and the watchdog's diagnostic derive from the
	// same helper, so their in-flight/queue numbers must be identical; the
	// checkpoint's DRAM queues must agree with the post-drain view (empty).
	for _, n := range e.diagnostic("x").DRAMQueues {
		if n != 0 {
			t.Errorf("diagnostic reports queued work after drain: %v", e.diagnostic("x").DRAMQueues)
		}
	}
}

func TestWatchdogAndQuiesceAgree(t *testing.T) {
	e := ckptEngine(buildCkptGraph(), nil)
	if _, err := e.runUntil(300); err != nil {
		t.Fatal(err)
	}
	q := e.quiesceState()
	w := e.diagnostic("probe")
	if !reflect.DeepEqual(q.InFlight, w.InFlight) {
		t.Errorf("drain and watchdog in-flight views differ:\n%+v\n%+v", q.InFlight, w.InFlight)
	}
	if !reflect.DeepEqual(q.DRAMQueues, w.DRAMQueues) {
		t.Errorf("drain and watchdog queue views differ:\n%v\n%v", q.DRAMQueues, w.DRAMQueues)
	}
}
