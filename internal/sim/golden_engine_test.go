package sim

import (
	"context"
	"reflect"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/fault"
	"plasticine/internal/trace"
	"plasticine/internal/workloads"
)

// This file is the event core's byte-identity contract, enforced: every
// Table 4 benchmark runs through both scheduling cores and every observable
// — cycle count, DRAM counters, trace report, pattern rollup, recovery
// decomposition — must match exactly. The legacy cycle loop
// is the oracle; any divergence is an event-core bug by definition.

// goldenRun executes one benchmark under the given engine with a collector
// armed and returns everything observable about the run.
func goldenRun(t *testing.T, b workloads.Benchmark, kind engineKind) (*Result, *trace.Report, *trace.PatternReport) {
	t.Helper()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", b.Name(), err)
	}
	m, err := compiler.CompileOpts(context.Background(), prog, compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatalf("%s: compile: %v", b.Name(), err)
	}
	col := trace.NewCollector()
	res, st, err := simulate(context.Background(), m, Options{Recorder: col}, kind.loop)
	if err != nil {
		t.Fatalf("%s: simulate (%v engine): %v", b.Name(), kind, err)
	}
	if err := b.Check(st); err != nil {
		t.Fatalf("%s (%v engine): %v", b.Name(), kind, err)
	}
	return res, col.Report(), col.PatternReport(b.Name())
}

// TestEngineGoldenIdentity runs every Table 4 benchmark through the event
// core and the cycle-by-cycle oracle and requires identical cycle counts,
// DRAM counter sets, trace reports and pattern rollups.
func TestEngineGoldenIdentity(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			evRes, evRep, evPat := goldenRun(t, b, eventEngine)
			cyRes, cyRep, cyPat := goldenRun(t, b, cycleEngine)
			if evRes.Cycles != cyRes.Cycles {
				t.Errorf("cycles: event %d, cycle %d", evRes.Cycles, cyRes.Cycles)
			}
			if evRes.Activities != cyRes.Activities {
				t.Errorf("activities: event %d, cycle %d", evRes.Activities, cyRes.Activities)
			}
			if !reflect.DeepEqual(evRes.DRAM, cyRes.DRAM) {
				t.Errorf("dram stats diverge:\nevent %+v\ncycle %+v", evRes.DRAM, cyRes.DRAM)
			}
			if !reflect.DeepEqual(evRep, cyRep) {
				t.Errorf("trace reports diverge:\nevent %+v\ncycle %+v", evRep, cyRep)
			}
			if !reflect.DeepEqual(evPat, cyPat) {
				t.Errorf("pattern reports diverge:\nevent %+v\ncycle %+v", evPat, cyPat)
			}
		})
	}
}

// TestEngineGoldenFaultedIdentity repeats the identity check with the fault
// model armed (latency spikes + transient retries), which exercises the
// event core's retry-backoff events and the fault PRNG's draw order.
func TestEngineGoldenFaultedIdentity(t *testing.T) {
	run := func(kind engineKind) (*Result, *trace.Report) {
		m, _, _ := recoverySetup(t, memoryFaultPlan(t, fault.Spec{Seed: 11, SpikeProb: 0.05, SpikeCycles: 40,
			TransientProb: 0.02, MaxRetries: 4, RetryBackoff: 8}))
		col := trace.NewCollector()
		res, _, err := simulate(context.Background(), m, Options{Recorder: col}, kind.loop)
		if err != nil {
			t.Fatalf("%v engine: %v", kind, err)
		}
		return res, col.Report()
	}
	ev, evRep := run(eventEngine)
	cy, cyRep := run(cycleEngine)
	if ev.Cycles != cy.Cycles {
		t.Errorf("cycles: event %d, cycle %d", ev.Cycles, cy.Cycles)
	}
	if !reflect.DeepEqual(ev.DRAM, cy.DRAM) {
		t.Errorf("dram stats diverge:\nevent %+v\ncycle %+v", ev.DRAM, cy.DRAM)
	}
	if !reflect.DeepEqual(evRep, cyRep) {
		t.Errorf("trace reports (per-channel DRAM counters included) diverge:\nevent %+v\ncycle %+v", evRep, cyRep)
	}
	if ev.DRAM.Retries == 0 && ev.DRAM.LatencySpikes == 0 {
		t.Error("fault model never fired; the test exercises nothing")
	}
}

// TestEngineGoldenStall pauses both engines at the same mid-run cycle,
// drains, stalls them as a reconfiguration would and runs them on: the
// makespan, every activity's [start, end] and the DRAM counters (run totals
// and per channel) must match. InnerProduct on one DDR channel has
// transfers parked on the full channel queue at the pause, so the event
// core passes only if the stall rebuilds its indexes.
func TestEngineGoldenStall(t *testing.T) {
	params := arch.Default()
	params.Chip.DDRChannels = 1
	run := func(kind engineKind) *engine {
		prog, err := workloads.NewInnerProduct().Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := compiler.CompileOpts(context.Background(), prog, compiler.Options{Params: params})
		if err != nil {
			t.Fatal(err)
		}
		eng, _, err := prepare(context.Background(), m, Options{}, kind.loop)
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := eng.runUntil(700); err != nil {
			t.Fatalf("%v engine: %v", kind, err)
		} else if fin {
			t.Fatalf("%v engine: finished before the pause cycle", kind)
		}
		if _, err := eng.drainInFlight(); err != nil {
			t.Fatalf("%v engine: drain: %v", kind, err)
		}
		if kind.name == eventEngine.name && eng.nParked == 0 {
			t.Fatal("event engine: no transfer is parked at the pause; the stall's rebuild goes untested")
		}
		eng.stall(5000)
		if _, err := eng.run(); err != nil {
			t.Fatalf("%v engine: %v", kind, err)
		}
		return eng
	}
	ev, cy := run(eventEngine), run(cycleEngine)
	if ev.makespan != cy.makespan {
		t.Errorf("makespan: event %d, cycle %d", ev.makespan, cy.makespan)
	}
	for i, a := range ev.acts {
		if b := cy.acts[i]; a.start != b.start || a.end != b.end {
			t.Errorf("%s: event [%d,%d], cycle [%d,%d]", actLabel(a), a.start, a.end, b.start, b.end)
		}
	}
	if ev.dram.Stats() != cy.dram.Stats() {
		t.Errorf("dram stats diverge:\nevent %+v\ncycle %+v", ev.dram.Stats(), cy.dram.Stats())
	}
	if got, want := ev.dram.ChannelStats(), cy.dram.ChannelStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("per-channel dram counters diverge:\nevent %+v\ncycle %+v", got, want)
	}
}

// TestEngineGoldenRecovery survives the same kill-channel plan under both
// engines and requires identical makespans, DRAM counters (run totals and
// per channel) and per-event recovery decompositions (pause cycle, drain
// cost, lost bursts, reconfiguration stall).
func TestEngineGoldenRecovery(t *testing.T) {
	run := func(kind engineKind) (*Result, *trace.Report) {
		plan, err := fault.NewPlan(fault.Spec{Seed: 2,
			Events: []fault.EventSpec{{Kind: fault.KillChan, Cycle: 300}}}, arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		m, total, want := recoverySetup(t, plan)
		col := trace.NewCollector()
		res, st, err := simulate(context.Background(), m, Options{Recovery: true, Recorder: col}, kind.loop)
		if err != nil {
			t.Fatalf("%v engine: %v", kind, err)
		}
		checkDot(t, st, total, want)
		if res.Recovery == nil || len(res.Recovery.Events) == 0 {
			t.Fatalf("%v engine: no recovery events recorded", kind)
		}
		return res, col.Report()
	}
	ev, evRep := run(eventEngine)
	cy, cyRep := run(cycleEngine)
	if ev.Cycles != cy.Cycles {
		t.Errorf("cycles: event %d, cycle %d", ev.Cycles, cy.Cycles)
	}
	if !reflect.DeepEqual(ev.DRAM, cy.DRAM) {
		t.Errorf("dram stats diverge:\nevent %+v\ncycle %+v", ev.DRAM, cy.DRAM)
	}
	if !reflect.DeepEqual(evRep.Channels, cyRep.Channels) {
		t.Errorf("per-channel dram counters diverge:\nevent %+v\ncycle %+v", evRep.Channels, cyRep.Channels)
	}
	if !reflect.DeepEqual(ev.Recovery, cy.Recovery) {
		t.Errorf("recovery decompositions diverge:\nevent %+v\ncycle %+v", ev.Recovery, cy.Recovery)
	}
}

// TestWatchdogToleratesLongMemoryGap: a latency spike far longer than the
// stall window is a long wait, not a livelock — the memory system still
// holds the spiked burst, so the event-time-aware watchdog must let the run
// finish. Both engines must agree (the legacy loop shares checkWatchdog).
func TestWatchdogToleratesLongMemoryGap(t *testing.T) {
	for _, kind := range []engineKind{eventEngine, cycleEngine} {
		m, total, want := recoverySetup(t, memoryFaultPlan(t, fault.Spec{Seed: 3, SpikeProb: 1.0, SpikeCycles: 400}))
		eng, st, err := prepare(context.Background(), m, Options{}, kind.loop)
		if err != nil {
			t.Fatal(err)
		}
		eng.stallWindow = 64
		if _, err := eng.run(); err != nil {
			t.Fatalf("%v engine: spiked run tripped the stall detector: %v", kind, err)
		}
		checkDot(t, st, total, want)
		if eng.dram.Stats().LatencySpikes == 0 {
			t.Fatalf("%v engine: no spikes fired; the test exercises nothing", kind)
		}
	}
}

// memoryFaultPlan builds the fault plan for a memory-only fault spec, the
// path production runs take to arm the DRAM fault model.
func memoryFaultPlan(t *testing.T, spec fault.Spec) *fault.Plan {
	t.Helper()
	plan, err := fault.NewPlan(spec, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestChannelCountersBalance checks every never-killed DRAM channel's
// counters under kill-chan plans, on both scheduling cores: each burst the
// channel scheduled (a row hit, miss or conflict) either landed (a read or
// a write) or retried, so Reads + Writes = RowHits + RowMisses +
// RowConflicts − Retries. Crediting a landing to the channel its address
// maps to, rather than the one that served it, breaks this once a kill
// shrinks the healthy set under an address whose home channel is down.
func TestChannelCountersBalance(t *testing.T) {
	specs := []string{
		"seed=3,chan=1,retry=0.01,spike=0.02,kill-chan@4000",
		"seed=2,chan=1,kill-chan@3000",
		"seed=5,retry=0.02,kill-chan@2000,kill-chan@5000",
		"seed=9,chan=2,kill-chan@2500",
	}
	for _, s := range specs {
		spec, err := fault.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		plan := memoryFaultPlan(t, spec)
		down := append([]bool(nil), plan.DRAMFaults().Down...)
		down = append(down, make([]bool, arch.Default().Chip.DDRChannels-len(down))...)
		for _, ev := range plan.Events() {
			down[ev.Chan] = true
		}
		for _, kind := range []engineKind{eventEngine, cycleEngine} {
			b := workloads.NewSMDV()
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := compiler.CompileOpts(context.Background(), prog, compiler.Options{Params: arch.Default(), Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			col := trace.NewCollector()
			res, st, err := simulate(context.Background(), m, Options{Recovery: true, Recorder: col}, kind.loop)
			if err != nil {
				t.Fatalf("%s, %v engine: %v", s, kind, err)
			}
			if err := b.Check(st); err != nil {
				t.Fatalf("%s, %v engine: %v", s, kind, err)
			}
			if res.Recovery == nil || len(res.Recovery.Events) == 0 {
				t.Fatalf("%s, %v engine: no kill fired", s, kind)
			}
			checked := 0
			for _, c := range col.Report().Channels {
				if down[c.Channel] {
					continue
				}
				checked++
				if landed, served := c.Reads+c.Writes, c.RowHits+c.RowMisses+c.RowConflicts-c.Retries; landed != served {
					t.Errorf("%s, %v engine: channel %d landed %d bursts (reads+writes) but served %d (row outcomes - retries)",
						s, kind, c.Channel, landed, served)
				}
			}
			if checked == 0 {
				t.Fatalf("%s: every channel went down", s)
			}
		}
	}
}
