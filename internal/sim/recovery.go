package sim

import (
	"context"
	"fmt"

	"plasticine/internal/compiler"
	"plasticine/internal/fault"
)

// RecoveryEvent is the measured overhead of surviving one timed fault.
type RecoveryEvent struct {
	Event string // rendered fault event, e.g. "kill-pcu@5000 (4,2)"
	At    int64  // cycle execution actually paused (>= the scheduled cycle)

	// DrainCycles is the quiescence protocol's cost: cycles spent letting
	// every outstanding burst land before the repair.
	DrainCycles int64
	// LostBursts counts in-flight requests dropped by the fault (killed
	// channel); each is reissued after the stall.
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

// survive runs the engine through the timed fault events of m's plan,
// surviving each one, and returns their overheads (nil when the plan
// schedules none):
//
//  1. run to the event's cycle (a loop boundary);
//  2. land the fault — a killed DRAM channel drops its queued and in-flight
//     bursts, which are accounted and marked for reissue;
//  3. drain the remaining in-flight work to quiescence;
//  4. repair the mapping incrementally around the dead resource (fabric
//     faults only);
//  5. stall the drained engine for the reconfiguration and continue.
//
// Each event extends a copy of the plan, taken before the first, so the
// caller's plan is never written and may back another compile and run;
// the repaired mapping carries the copy. A fault the mapping cannot be
// repaired around (wrapping compiler.ErrInsufficient or
// compiler.ErrNoRoute) fails the run.
func (eng *engine) survive(ctx context.Context, m *compiler.Mapping) (*RecoveryStats, error) {
	events := m.Faults.Events()
	if len(events) == 0 {
		return nil, nil
	}
	plan := m.Faults.Clone()
	rec := &RecoveryStats{}
	for _, ev := range events {
		finished, err := eng.runUntil(ev.Cycle)
		if err != nil {
			return nil, err
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
				return nil, fmt.Errorf("sim: recovery at cycle %d: %s: %w", eng.clock, ev, err)
			}
			re.LostBursts = lost
		}
		if err := plan.Extend(ev); err != nil {
			return nil, fmt.Errorf("sim: recovery at cycle %d: %s: %w", eng.clock, ev, err)
		}

		drain, err := eng.drainInFlight()
		if err != nil {
			return nil, fmt.Errorf("sim: recovery at cycle %d: %s: drain: %w", eng.clock, ev, err)
		}
		re.DrainCycles = drain

		if ev.Kind != fault.KillChan {
			rep, err := compiler.Repair(ctx, m, plan)
			if err != nil {
				return nil, fmt.Errorf("sim: recovery at cycle %d: %s: %w", eng.clock, ev, err)
			}
			re.MovedPCUs, re.MovedPMUs = rep.MovedPCUs, rep.MovedPMUs
			re.ReroutedEdges, re.FullRecompile = rep.ReroutedEdges, rep.FullRecompile
			re.ReconfigCycles = m.Params.ReconfigCycles(rep.MovedPCUs, rep.MovedPMUs, rep.ReroutedEdges)
		}

		// Every event stalls, a memory-channel kill for 0 cycles, so the
		// event core re-attempts every running transfer at the resume cycle.
		eng.stall(re.ReconfigCycles)

		rec.Events = append(rec.Events, re)
		rec.DrainCycles += re.DrainCycles
		rec.ReconfigCycles += re.ReconfigCycles
		rec.LostBursts += re.LostBursts
	}
	return rec, nil
}
