package sim

import (
	"sync/atomic"

	"plasticine/internal/metrics"
)

// simInstruments is the simulator's operational telemetry, sampled by the
// engine as it runs. A nil instruments pointer (no registry armed)
// keeps the hot loop branch-predictable and allocation-free.
type simInstruments struct {
	// queueDepth gauges the scheduler's outstanding event sources: DRAM
	// events (pending completions + retrying bursts) plus transfers awaiting
	// admission. The engine samples it where it polls its context, every
	// ctxCheckInterval cycles, and when a run finishes.
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
			"Outstanding simulator event sources (DRAM completions, retrying bursts, transfers awaiting admission), sampled every 4096 simulated cycles and when a run finishes."),
		eventsPerCycle: r.Histogram("plasticine_sim_events_per_cycle",
			"Event-loop steps per simulated cycle for finished runs (lower is better; 1.0 means no cycles were skipped)."),
	})
}

// observeRun records a finished run's event-loop efficiency and its final
// queue depth.
func (e *engine) observeRun(cycles int64) {
	if e.insts == nil || cycles <= 0 {
		return
	}
	e.sampleQueueDepth()
	e.insts.eventsPerCycle.Observe(float64(e.steps) / float64(cycles))
}

// sampleQueueDepth sets the queue-depth gauge from the engine's state now.
func (e *engine) sampleQueueDepth() {
	if e.insts != nil {
		e.insts.queueDepth.Set(int64(e.dram.EventCount() + len(e.waiting)))
	}
}
