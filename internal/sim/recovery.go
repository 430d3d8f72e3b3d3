package sim

import (
	"context"
	"fmt"
	"time"

	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
)

// RecoveryEvent is the measured overhead of surviving one timed fault.
type RecoveryEvent struct {
	Event string // rendered fault event, e.g. "kill-pcu@5000 (4,2)"
	At    int64  // cycle execution actually paused (>= the scheduled cycle)

	// DrainCycles is the quiescence protocol's cost: cycles spent letting
	// every outstanding burst land before the checkpoint.
	DrainCycles int64
	// LostBursts counts in-flight requests dropped by the fault (killed
	// channel); each is reissued after the restore.
	LostBursts int

	// Repair outcome (zero for memory-channel faults, which need no
	// fabric reconfiguration).
	MovedPCUs, MovedPMUs, ReroutedEdges int
	FullRecompile                       bool
	// ReconfigCycles is the stall charged for streaming new unit and switch
	// configurations plus refilling moved PMUs' scratchpads.
	ReconfigCycles int64
}

// RecoveryStats aggregates every survived fault of a run.
type RecoveryStats struct {
	Events []RecoveryEvent

	DrainCycles    int64 // total quiescence cost
	ReconfigCycles int64 // total reconfiguration stall
	LostBursts     int   // total dropped-and-reissued DRAM bursts
}

// runRecovery simulates a compiled program whose fault plan schedules
// timed mid-run events (Simulate guarantees there is at least one),
// surviving each one:
//
//  1. run to the event's cycle (a loop boundary);
//  2. land the fault — a killed DRAM channel drops its queued and in-flight
//     bursts, which are accounted and marked for reissue;
//  3. drain the remaining in-flight work to quiescence;
//  4. checkpoint: take the engine's state as a plain value;
//  5. repair the mapping incrementally around the dead resource (fabric
//     faults only) and charge the reconfiguration stall;
//  6. restore into a fresh engine and continue.
//
// A fault the mapping cannot be repaired around (wrapping
// compiler.ErrInsufficient or compiler.ErrNoRoute) fails the run.
func runRecovery(ctx context.Context, m *compiler.Mapping, opts Options, lp loop) (*Result, *dhdl.State, error) {
	events := m.Faults.Events()
	eng, st, err := prepare(ctx, m, opts, lp)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	eng.ctx = ctx
	plan := m.Faults
	rec := &RecoveryStats{}
	for _, ev := range events {
		finished, err := eng.runUntil(ev.Cycle)
		if err != nil {
			return nil, nil, err
		}
		if finished {
			break // the program completed before this fault could land
		}
		re := RecoveryEvent{Event: ev.String(), At: eng.clock}

		if ev.Kind == fault.KillChan {
			// Lost bursts come queued first, then in flight in scheduling
			// order, then retrying; they are reissued in that order.
			lost, err := eng.dram.KillChannel(ev.Chan, func(tag int64) {
				actID, burst := splitTag(tag)
				if rx := eng.byAct[actID]; rx != nil {
					rx.inFlight--
					rx.requeue = append(rx.requeue, burst)
				}
			})
			if err != nil {
				return nil, nil, fmt.Errorf("sim: recovery at cycle %d: %s: %w", eng.clock, ev, err)
			}
			re.LostBursts = lost
		}
		if err := plan.Extend(ev); err != nil {
			return nil, nil, fmt.Errorf("sim: recovery at cycle %d: %s: %w", eng.clock, ev, err)
		}

		_, drain, err := eng.drainInFlight()
		if err != nil {
			return nil, nil, fmt.Errorf("sim: recovery at cycle %d: %s: drain: %w", eng.clock, ev, err)
		}
		re.DrainCycles = drain

		cp := eng.checkpoint()

		if ev.Kind != fault.KillChan {
			rep, err := compiler.Repair(ctx, m, plan)
			if err != nil {
				return nil, nil, fmt.Errorf("sim: recovery at cycle %d: %s: %w", eng.clock, ev, err)
			}
			re.MovedPCUs, re.MovedPMUs = rep.MovedPCUs, rep.MovedPMUs
			re.ReroutedEdges, re.FullRecompile = rep.ReroutedEdges, rep.FullRecompile
			re.ReconfigCycles = m.Params.ReconfigCycles(rep.MovedPCUs, rep.MovedPMUs, rep.ReroutedEdges)
		}

		// The fabric stalls for the reconfiguration; everything resumes on
		// the shifted clock. The memory system idles through the stall, so
		// its refresh schedule shifts with it.
		cp.Clock += re.ReconfigCycles
		cp.LastProgressAt = cp.Clock
		if cp.DRAM != nil {
			cp.DRAM.NextRefresh += re.ReconfigCycles
		}
		fresh := &engine{acts: eng.acts, dram: eng.dram,
			units: eng.units, rec: eng.rec,
			maxCycles: eng.maxCycles, stallWindow: eng.stallWindow,
			ctx: eng.ctx, nextCtxCheck: eng.nextCtxCheck,
			loop: eng.loop, insts: eng.insts, steps: eng.steps}
		if err := fresh.restore(cp); err != nil {
			return nil, nil, fmt.Errorf("sim: recovery at cycle %d: %s: %w", eng.clock, ev, err)
		}
		eng = fresh

		rec.Events = append(rec.Events, re)
		rec.DrainCycles += re.DrainCycles
		rec.ReconfigCycles += re.ReconfigCycles
		rec.LostBursts += re.LostBursts
	}
	cycles, err := eng.run()
	if err != nil {
		return nil, nil, err
	}
	eng.observeRun(cycles)
	eng.emitTrace(m, recoveryWindows(rec))
	res := buildResult(m, eng, cycles, t0)
	res.Recovery = rec
	return res, st, nil
}
