package sim

import "container/heap"

// cycleLoop is the legacy cycle-by-cycle scheduling core, kept verbatim as
// the reference oracle the event core is differentially tested against
// (golden_engine_test.go). It ticks every cycle through the step sequence
// [admit, issue, tick, watchdog, retire, drainReady] that the event core
// must reproduce exactly.
var cycleLoop = loop{(*engine).runUntilCycle, (*engine).drainInFlightCycle}

// engineKind names a scheduling core in the differential tests.
type engineKind struct {
	name string
	loop loop
}

func (k engineKind) String() string { return k.name }

var (
	eventEngine = engineKind{"event", eventLoop}
	cycleEngine = engineKind{"cycle", cycleLoop}
)

// runUntilCycle is runUntil one cycle at a time.
func (e *engine) runUntilCycle(stopAt int64) (bool, error) {
	e.start()
	e.drainReady()
	for len(e.waiting) > 0 || len(e.running) > 0 {
		if stopAt >= 0 && e.clock >= stopAt {
			return false, nil
		}
		// Admit transfers whose start time has arrived; if idle, jump (but
		// never past the stop point).
		if len(e.running) == 0 && len(e.waiting) > 0 && e.waiting[0].start > e.clock {
			jump := e.waiting[0].start
			if stopAt >= 0 && jump > stopAt {
				jump = stopAt
			}
			e.clock = jump
			e.lastProgressAt = e.clock // a jump is forward progress
			if stopAt >= 0 && e.clock >= stopAt {
				return false, nil
			}
		}
		for len(e.waiting) > 0 && e.waiting[0].start <= e.clock {
			e.admit(heap.Pop(&e.waiting).(*activity))
		}
		e.issueBursts()
		e.clock++
		e.tick()
		if err := e.checkWatchdog(); err != nil {
			return false, err
		}
		e.retire()
		e.drainReady()
	}
	return true, nil
}

// issueBursts feeds each running transfer's AG, reissuing fault-dropped
// bursts before advancing to new ones.
func (e *engine) issueBursts() {
	for _, rx := range e.running {
		e.issueInto(rx)
	}
}

// drainInFlightCycle is drainInFlight one cycle at a time.
func (e *engine) drainInFlightCycle() (int64, error) {
	from := e.clock
	for !e.quiescent() {
		e.clock++
		e.tick()
		if err := e.checkWatchdog(); err != nil {
			return e.clock - from, err
		}
		e.retire()
	}
	// Transfers finishing exactly at the drain boundary retire here, so the
	// engine resumes with them resolved.
	e.retire()
	return e.clock - from, nil
}
