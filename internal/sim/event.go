package sim

import "container/heap"

// This file is the discrete-event scheduling core (eventLoop). It resolves
// the identical activity graph against the identical DRAM model as the
// legacy cycle-by-cycle loop, which the golden identity tests keep as
// their reference oracle (cycle_loop_test.go), but instead of
// ticking every cycle it computes the next state-changing cycle and jumps
// straight to it. Byte-identity with the legacy loop is the contract — same
// cycle counts, same DRAM counters, same recovery decompositions, same
// watchdog trip cycles — and rests on one invariant: every cycle skipped
// over is provably a no-op under the legacy loop's per-cycle step sequence
// [admit, issue, tick, watchdog, retire, drainReady]. A rejected submission
// changes nothing in the memory system, so a cycle whose only work would be
// rejected attempts is such a no-op.
//
// Event taxonomy (the candidates nextEventCycle gathers):
//   - transfer admission: the start heap's earliest start time;
//   - burst issue: clock+1 while any active AG can submit another burst;
//   - DRAM activity (dram.NextEventAt): pending burst completions, retry
//     backoffs elapsing, the periodic refresh, and the first cycle a
//     channel's queued work finds a ready bank;
//   - deadlines: the watchdog's stall window, the cycle budget, and the
//     periodic context-cancellation poll, so aborts land on the same cycle
//     the legacy loop would trip.
//
// Transfers that cannot act are parked instead of rescanned: a saturated AG
// (32 bursts in flight) wakes on a completion; an AG whose submission was
// rejected parks against its target channel and wakes when that channel
// frees a queue slot.

// issueBurstsEvent is the event core's issue pass: only transfers that may
// actually submit this cycle are scanned, in admission order (the legacy
// loop attempts transfers in running-list order, which is admission order).
// It reports whether any transfer remains issuable next cycle.
func (e *engine) issueBurstsEvent() bool {
	if len(e.active) == 0 {
		return false
	}
	kept := e.active[:0]
	for _, rx := range e.active {
		if rx.act.resolved {
			continue // retired while waiting for its wakeup
		}
		e.issueInto(rx)
		switch {
		case rx.inFlight >= agOutstanding:
			rx.state = rxSat // a burst completion reactivates it
		case len(rx.requeue) == 0 && rx.cur.next == rx.act.nBursts:
			rx.state = rxDone // nothing left to issue; retires when bursts land
		default:
			if ci := e.nextChannel(rx); e.dram.QueueSlack(ci) > 0 {
				rx.state = rxActive
				kept = append(kept, rx)
			} else {
				e.parkBlocked(rx, ci)
			}
		}
	}
	for i := len(kept); i < len(e.active); i++ {
		e.active[i] = nil
	}
	e.active = kept
	return len(e.active) > 0
}

// parkBlocked benches a transfer whose next submission would be rejected,
// against its target channel ci, or against -1 when every channel is down.
// Each group stays in admission order, so a wake takes its head.
func (e *engine) parkBlocked(rx *runningXfer, ci int) {
	rx.state = rxBlocked
	slot := ci + 1
	if slot >= len(e.parked) {
		e.parked = append(e.parked, make([][]*runningXfer, slot+1-len(e.parked))...)
	}
	e.parked[slot] = insertBySeq(e.parked[slot], rx)
	e.nParked++
}

// wakeParked reactivates blocked transfers whose target channel freed queue
// slots during the tick that just ran. At most `slack` transfers wake, in
// admission order — exactly the set whose next real attempt can differ from
// a rejection. A woken transfer that still loses the race for the slot (an
// active lower-seq transfer claims it first) simply fails its real attempt
// and re-parks, which is what the legacy loop's attempt would have done.
func (e *engine) wakeParked() {
	if e.nParked == 0 {
		return
	}
	// Slot 0 holds transfers blocked with every channel down, which never
	// heals mid-run.
	for slot := 1; slot < len(e.parked); slot++ {
		group := e.parked[slot]
		if len(group) == 0 {
			continue
		}
		free := e.dram.QueueSlack(slot - 1)
		if free <= 0 {
			continue
		}
		n := min(free, len(group))
		for _, rx := range group[:n] {
			e.activate(rx)
		}
		e.nParked -= n
		e.parked[slot] = append(group[:0], group[n:]...)
	}
}

// nextEventCycle returns the next cycle at which engine or memory state can
// change — the cycle the legacy loop would next do observable work on. All
// intermediate cycles are no-ops by construction: no admission is due, no
// active AG can issue, the DRAM has no completion/retry/refresh/schedule
// opportunity, and no watchdog deadline expires.
func (e *engine) nextEventCycle(stopAt int64, canIssue bool) int64 {
	if canIssue {
		// clock+1 is the floor every other candidate clamps to, so an
		// issuable transfer decides the answer outright.
		next := e.clock + 1
		if stopAt >= 0 && next > stopAt {
			next = stopAt
		}
		return next
	}
	next := int64(-1)
	consider := func(v int64) {
		if v <= e.clock {
			v = e.clock + 1
		}
		if next < 0 || v < next {
			next = v
		}
	}
	if len(e.waiting) > 0 {
		consider(e.waiting[0].start)
	}
	if at := e.dram.NextEventAt(e.clock); at >= 0 {
		consider(at)
	}
	consider(e.nextDeadline())
	if stopAt >= 0 && next > stopAt {
		next = stopAt // the legacy loop ticks stopAt itself before pausing
	}
	return next
}

// runUntilEvent is runUntil's discrete-event implementation. The loop body
// mirrors the legacy cycle loop's phase order exactly — stop check, idle
// jump, admission, issue, clock advance, memory tick, watchdog, retire,
// dependency drain — with the clock advancing to the next event instead of
// by one.
func (e *engine) runUntilEvent(stopAt int64) (bool, error) {
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
			rx := e.admit(heap.Pop(&e.waiting).(*activity))
			rx.seq = e.nextSeq
			e.nextSeq++
			e.active = append(e.active, rx) // seqs ascend; order preserved
		}
		canIssue := e.issueBurstsEvent()
		e.clock = e.nextEventCycle(stopAt, canIssue)
		e.steps++
		e.tick()
		e.wakeParked()
		if err := e.checkWatchdog(); err != nil {
			return false, err
		}
		if e.retireNeeded {
			e.retireNeeded = false
			e.retire()
		}
		e.drainReady()
	}
	return true, nil
}

// drainInFlightEvent is drainInFlight's discrete-event implementation: jump
// between memory-system events until quiescent, issuing nothing, with the
// watchdog's deadlines still armed.
func (e *engine) drainInFlightEvent() (int64, error) {
	from := e.clock
	for !e.quiescent() {
		next := e.nextDeadline()
		if at := e.dram.NextEventAt(e.clock); at >= 0 && at < next {
			next = at
		}
		e.clock = max(next, e.clock+1)
		e.steps++
		e.tick()
		if err := e.checkWatchdog(); err != nil {
			return e.clock - from, err
		}
		if e.retireNeeded {
			e.retireNeeded = false
			e.retire()
		}
	}
	// Transfers finishing exactly at the drain boundary retire here, so the
	// engine resumes with them resolved.
	e.retire()
	return e.clock - from, nil
}

// nextDeadline returns the earliest watchdog deadline: the stall window's
// expiry, the cycle budget and the next context poll. The event core lands
// on it exactly, so an abort trips on the cycle the legacy loop would trip.
func (e *engine) nextDeadline() int64 {
	next := e.lastProgressAt + e.stallWindow
	if e.maxCycles > 0 {
		next = min(next, e.maxCycles)
	}
	if e.ctx != nil {
		next = min(next, e.nextCtxCheck)
	}
	return next
}

// rebuildEventState re-derives the event core's indexes after a recovery
// stall: every running transfer starts active, so the first issue pass
// attempts them all at the resume cycle — exactly what the legacy loop does
// — and re-parks the ones that cannot act. It also decodes each transfer's
// next burst afresh, as a killed channel may have remapped it.
func (e *engine) rebuildEventState() {
	e.active = e.active[:0]
	for slot := range e.parked {
		e.parked[slot] = e.parked[slot][:0]
	}
	e.nParked = 0
	e.retireNeeded = false
	e.nextSeq = 0
	for _, rx := range e.running {
		rx.seq = e.nextSeq
		e.nextSeq++
		rx.state = rxActive
		e.seek(rx) // a killed channel remaps addresses
		e.active = append(e.active, rx)
	}
}
