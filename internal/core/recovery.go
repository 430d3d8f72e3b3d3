package core

import (
	"fmt"

	"plasticine/internal/fault"
	"plasticine/internal/sim"
	"plasticine/internal/stats"
)

// RecoveryReport decomposes the cost of surviving a timed fault schedule
// into checkpoint (quiescence drain), reconfiguration, and re-execution
// cycles for one benchmark.
type RecoveryReport struct {
	Name string
	Spec fault.Spec

	// BaselineCycles is the same spec with the timed events stripped: the
	// static-fault makespan the recovering run is compared against.
	BaselineCycles int64
	// Cycles is the makespan with every event survived.
	Cycles int64

	Events []sim.RecoveryEvent

	// Overhead decomposition. Drain and reconfiguration are measured stalls;
	// re-execution is the residual extra makespan — lost in-flight work done
	// again plus running the tail on a degraded fabric.
	DrainCycles    int64
	ReconfigCycles int64
	ReExecCycles   int64
	LostBursts     int
}

// OverheadFrac is the total recovery overhead relative to the baseline.
func (r *RecoveryReport) OverheadFrac() float64 {
	if r.BaselineCycles == 0 {
		return 0
	}
	return float64(r.Cycles-r.BaselineCycles) / float64(r.BaselineCycles)
}

// FormatRecovery renders one report: the per-event breakdown followed by
// the run-level overhead decomposition.
func FormatRecovery(rep *RecoveryReport) string {
	t := stats.New(
		fmt.Sprintf("Recovery: %s, %d timed fault(s) survived", rep.Name, len(rep.Events)),
		"Event", "Fired", "Drain", "Lost", "Moved", "Rerouted", "Reconfig")
	for _, e := range rep.Events {
		moved := fmt.Sprintf("%dP+%dM", e.MovedPCUs, e.MovedPMUs)
		if e.FullRecompile {
			moved += "*"
		}
		t.Add(e.Event, fmt.Sprint(e.At), fmt.Sprint(e.DrainCycles), fmt.Sprint(e.LostBursts),
			moved, fmt.Sprint(e.ReroutedEdges), fmt.Sprint(e.ReconfigCycles))
	}
	out := t.String()
	out += fmt.Sprintf("baseline %d cycles -> recovered %d cycles (%+.1f%%)\n",
		rep.BaselineCycles, rep.Cycles, 100*rep.OverheadFrac())
	out += fmt.Sprintf("overhead: %d drain (checkpoint) + %d reconfig + %d re-execution cycles, %d bursts reissued\n",
		rep.DrainCycles, rep.ReconfigCycles, rep.ReExecCycles, rep.LostBursts)
	return out
}

// DefaultRecoveryEvents is the schedule the recovery subcommand uses when
// none is given: a compute tile dies early, a memory tile mid-run, and a
// DRAM channel late.
func DefaultRecoveryEvents() []fault.EventSpec {
	return []fault.EventSpec{
		{Kind: fault.KillPCU, Cycle: 1000},
		{Kind: fault.KillPMU, Cycle: 2500},
		{Kind: fault.KillChan, Cycle: 4000},
	}
}
