package sim

import (
	"sync/atomic"

	"plasticine/internal/metrics"
)

// simInstruments is the simulator's operational telemetry, sampled by the
// event core's main loop. A nil instruments pointer (no registry armed)
// keeps the hot loop branch-predictable and allocation-free.
type simInstruments struct {
	// queueDepth gauges the scheduler's outstanding event sources at the
	// last event-loop step: DRAM events (pending completions + retrying
	// bursts) plus transfers awaiting admission.
	queueDepth *metrics.Gauge
	// eventsPerCycle observes, once per finished run, the ratio of event-loop
	// steps to simulated cycles — the event core's work-skipping efficiency
	// (1.0 would mean it degenerated to the cycle-by-cycle loop).
	eventsPerCycle *metrics.Histogram
}

// simMetrics holds the process-wide instruments; engines capture the pointer
// at prepare time, so a registry swap mid-run affects only later runs.
var simMetrics atomic.Pointer[simInstruments]

// UseMetrics registers the simulator's gauges and histograms with r and
// arms them for every subsequent run in the process (sweeps run simulations
// on many goroutines, so the instruments are process-wide, not per-run).
// Passing nil disarms them.
func UseMetrics(r *metrics.Registry) {
	if r == nil {
		simMetrics.Store(nil)
		return
	}
	simMetrics.Store(&simInstruments{
		queueDepth: r.Gauge("plasticine_sim_event_queue_depth",
			"Outstanding simulator event sources (DRAM completions, retrying bursts, transfers awaiting admission) at the last event-loop step."),
		eventsPerCycle: r.Histogram("plasticine_sim_events_per_cycle",
			"Event-loop steps per simulated cycle for finished runs (lower is better; 1.0 means no cycles were skipped)."),
	})
}

// observeRun records a finished run's event-loop efficiency.
func (e *engine) observeRun(cycles int64) {
	if e.insts == nil || cycles <= 0 {
		return
	}
	e.insts.eventsPerCycle.Observe(float64(e.steps) / float64(cycles))
}
