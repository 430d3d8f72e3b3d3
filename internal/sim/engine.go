package sim

import (
	"container/heap"
	"context"
	"fmt"

	"plasticine/internal/dram"
	"plasticine/internal/trace"
)

// ctxCheckInterval is how often (in simulated cycles) the engine polls its
// context for cancellation. Checking every cycle would put an atomic load in
// the hottest loop; every 4096 cycles bounds cancellation latency to a few
// microseconds of host time while costing nothing measurable.
const ctxCheckInterval = 4096

// agOutstanding is the number of in-flight bursts one transfer's address
// generator may keep in the coalescing unit (Section 3.4: buffers for
// multiple outstanding memory requests).
const agOutstanding = 32

// agIssueWidth is bursts an AG can enqueue per cycle.
const agIssueWidth = 1

// rxState is the event-driven core's view of one running transfer. The
// legacy cycle loop scans every running transfer every cycle; the event
// core instead keeps only actionable transfers in the active list and
// parks the rest until the event that could unblock them fires.
type rxState uint8

const (
	rxActive  rxState = iota // may issue a burst this cycle (in engine.active)
	rxSat                    // AG FIFO full; woken by a burst completion
	rxDone                   // all bursts issued; retires when they land
	rxBlocked                // Submit rejected; woken when its channel frees
)

// runningXfer tracks an in-flight transfer activity.
type runningXfer struct {
	act       *activity
	cur       cursor
	inFlight  int
	completed int
	// requeue holds burst indices whose requests were dropped by a mid-run
	// fault (e.g. a killed DRAM channel) and must be reissued. An activity's
	// runs are never mutated, so those indices name the same bursts across
	// recovery.
	requeue []int

	// Event-core bookkeeping (untouched by the legacy cycle loop). seq is
	// the admission order — the legacy engine attempts transfers in running-
	// list order every cycle, so the event core's issue pass must scan its
	// active subset in exactly that order. state says which list or event
	// holds the transfer (see rxState).
	seq   int64
	state rxState

	// Observability (tracked only when a trace.Collector is armed): cycles on
	// which the AG issued or landed at least one burst, deduplicated through
	// lastBusy, plus the outstanding-burst FIFO's occupancy peak.
	busy     int64
	lastBusy int64
	hiWater  int
}

// markBusy counts the current cycle as busy, at most once per cycle.
func (rx *runningXfer) markBusy(now int64) {
	if now != rx.lastBusy {
		rx.busy++
		rx.lastBusy = now
	}
}

type startHeap []*activity

func (h startHeap) Len() int           { return len(h) }
func (h startHeap) Less(i, j int) bool { return h[i].start < h[j].start }
func (h startHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *startHeap) Push(x any)        { *h = append(*h, x.(*activity)) }
func (h *startHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// cursor is a running transfer's issue position: its next burst, the next-th
// in issue order, at column col of row row of run run, and that burst
// decoded against the memory system. The issue path submits the decoded
// burst, so within a row each burst's decode is a step from the one
// before (dram.Next), and only a row's first burst is decoded afresh.
type cursor struct {
	next          int
	run, row, col int
	b             dram.Burst
}

// seek decodes the cursor's burst afresh: at admission, at the start of
// each row, and after a KillChannel remaps addresses.
func (e *engine) seek(rx *runningXfer) {
	c := &rx.cur
	if c.next < rx.act.nBursts {
		c.b = e.dram.Decode(rx.act.runs[c.run].at(rx.act.list, c.row, c.col))
	}
}

// advance moves rx's cursor past the burst it just issued.
func (e *engine) advance(rx *runningXfer) {
	c := &rx.cur
	if c.next++; c.next == rx.act.nBursts {
		return
	}
	r := &rx.act.runs[c.run]
	if c.col+1 < int(r.perRow) {
		c.col++
		e.dram.Next(&c.b)
		return
	}
	c.col = 0
	if c.row++; c.row == int(r.rows) {
		c.run, c.row = c.run+1, 0
	}
	e.seek(rx)
}

// burstTag packs an activity id and burst index into a dram.Request tag, so
// landings and lost-work accounting can identify any in-flight burst.
func burstTag(actID, burst int) int64 { return int64(actID)<<32 | int64(uint32(burst)) }

func splitTag(tag int64) (actID, burst int) { return int(tag >> 32), int(uint32(tag)) }

// engine resolves the activity graph against the DRAM model.
type engine struct {
	acts  []*activity
	dram  *dram.DRAM
	clock int64

	// loop is the scheduling core that advances the clock (see loop).
	loop loop

	// Observability: units is the builder's physical-unit registry; rec, when
	// non-nil, arms the per-transfer busy/high-water counters. Everything
	// else the Collector needs is replayed from the resolved graph after the
	// run (see emitTrace), so a nil rec leaves the hot loop unchanged.
	units []simUnit
	rec   *trace.Collector

	// Watchdog: maxCycles is the total cycle budget (0 = unlimited);
	// stallWindow aborts when no forward progress happens for that many
	// cycles (prepare sets defaultStallWindow).
	maxCycles   int64
	stallWindow int64

	// Cancellation: ctx is polled every ctxCheckInterval cycles (nil = never);
	// a canceled run aborts with a WatchdogError whose Cause is the context
	// error, so parallel sweeps can stop in-flight simulations early.
	ctx          context.Context
	nextCtxCheck int64

	ready   []*activity // deps satisfied, not yet resolved
	waiting startHeap   // transfers with known start, awaiting clock
	running []*runningXfer
	// byAct indexes running transfers by activity id (ids are indices into
	// acts), so a burst's tag names its transfer.
	byAct []*runningXfer

	bursts int64 // completed bursts (watchdog progress signal)

	// Run state, held in fields (not loop locals) so a run can pause at a
	// fault event, drain, stall and resume.
	started        bool
	resolvedCount  int
	makespan       int64
	lastResolved   int
	lastBursts     int64
	lastProgressAt int64

	// Event-core state (unused by the legacy cycle loop). active is the
	// subset of running transfers that may issue a burst next cycle, kept in
	// admission (seq) order. parked holds the transfers blocked on each DRAM
	// channel at index channel+1, and at 0 those blocked because every
	// channel is down; nParked counts them all. retireNeeded is set by
	// the completion callback when a transfer lands its last burst, so the
	// O(running) retire scan only runs on cycles where something can retire.
	nextSeq      int64
	active       []*runningXfer
	parked       [][]*runningXfer
	nParked      int
	retireNeeded bool
	steps        int64 // event-loop iterations (events-per-cycle metric)

	insts *simInstruments // nil unless UseMetrics armed a registry
}

// start seeds the ready list; idempotent across runUntil calls.
func (e *engine) start() {
	if e.started {
		return
	}
	e.started = true
	e.byAct = make([]*runningXfer, len(e.acts))
	for _, a := range e.acts {
		if a.nDepsLeft == 0 {
			e.ready = append(e.ready, a)
		}
	}
}

func (e *engine) resolve(a *activity, start, end int64) {
	a.start, a.end = start, end
	a.resolved = true
	e.resolvedCount++
	if end > e.makespan {
		e.makespan = end
	}
	for _, d := range a.dependents {
		d.nDepsLeft--
		if d.nDepsLeft == 0 {
			e.ready = append(e.ready, d)
		}
	}
}

func (e *engine) drainReady() {
	for len(e.ready) > 0 {
		a := e.ready[len(e.ready)-1]
		e.ready = e.ready[:len(e.ready)-1]
		start := int64(0)
		for _, d := range a.deps {
			if t := d.gateTime(); t > start {
				start = t
			}
		}
		switch a.kind {
		case actBarrier:
			e.resolve(a, start, start)
		case actCompute:
			e.resolve(a, start, start+a.dur)
		case actTransfer:
			if a.nBursts == 0 {
				e.resolve(a, start, start+a.fill)
				continue
			}
			a.start = start
			heap.Push(&e.waiting, a)
		}
	}
}

// admit starts a transfer whose start time has arrived.
func (e *engine) admit(a *activity) *runningXfer {
	rx := &runningXfer{act: a, lastBusy: -1}
	e.seek(rx)
	e.running = append(e.running, rx)
	e.byAct[a.id] = rx
	e.lastProgressAt = e.clock // admission is forward progress
	return rx
}

// tick advances the memory system to the clock and lands the bursts that
// completed. Every scheduling core ticks through it, so a landing has
// identical effects everywhere: it wakes a saturated AG and flags the
// retire scan when the transfer's last burst lands.
func (e *engine) tick() {
	for _, tag := range e.dram.Tick(e.clock) {
		actID, _ := splitTag(tag)
		rx := e.byAct[actID]
		rx.inFlight--
		rx.completed++
		e.bursts++
		if e.rec != nil {
			rx.markBusy(e.clock)
		}
		if rx.state == rxSat {
			e.activate(rx)
		}
		if rx.completed == rx.act.nBursts {
			e.retireNeeded = true
		}
	}
}

// activate puts a woken transfer back on the active list at its admission
// position.
func (e *engine) activate(rx *runningXfer) {
	rx.state = rxActive
	e.active = insertBySeq(e.active, rx)
}

// insertBySeq inserts rx into list, which is in admission order, at its
// admission position, found from the list's end: most inserts land there,
// and the transfers after it move one slot up as the search passes them.
func insertBySeq(list []*runningXfer, rx *runningXfer) []*runningXfer {
	i := len(list)
	list = append(list, rx)
	for ; i > 0 && list[i-1].seq > rx.seq; i-- {
		list[i] = list[i-1]
	}
	list[i] = rx
	return list
}

// issueInto attempts one cycle's worth of burst submissions for one
// transfer (the legacy per-cycle AG sequence, verbatim): reissue fault-
// dropped bursts before advancing to new ones, stop at the outstanding cap
// or the first rejected submission.
func (e *engine) issueInto(rx *runningXfer) {
	for k := 0; k < agIssueWidth; k++ {
		if rx.inFlight >= agOutstanding {
			break
		}
		idx, b := rx.cur.next, &rx.cur.b
		if len(rx.requeue) > 0 {
			idx = rx.requeue[0]
			lost := e.dram.Decode(rx.act.burstAt(idx))
			b = &lost
		} else if idx == rx.act.nBursts {
			break
		}
		if !e.dram.SubmitBurst(b, rx.act.write, burstTag(rx.act.id, idx)) {
			break // channel queue full; retry next cycle
		}
		if len(rx.requeue) > 0 {
			rx.requeue = rx.requeue[1:]
		} else {
			e.advance(rx)
		}
		rx.inFlight++
		if e.rec != nil {
			rx.markBusy(e.clock)
			if rx.inFlight > rx.hiWater {
				rx.hiWater = rx.inFlight
			}
		}
	}
}

// nextChannel returns the DRAM channel of the burst rx issues next: a
// reissue's, decoded here, or the cursor's.
func (e *engine) nextChannel(rx *runningXfer) int {
	if len(rx.requeue) > 0 {
		return e.dram.ChannelOf(rx.act.burstAt(rx.requeue[0]))
	}
	return rx.cur.b.Chan
}

// retire resolves transfers whose bursts have all completed.
func (e *engine) retire() {
	kept := e.running[:0]
	for _, rx := range e.running {
		if rx.completed == rx.act.nBursts {
			rx.act.busy, rx.act.hiWater = rx.busy, int32(rx.hiWater)
			e.byAct[rx.act.id] = nil
			e.resolve(rx.act, rx.act.start, e.clock+rx.act.fill)
		} else {
			kept = append(kept, rx)
		}
	}
	e.running = kept
}

// checkWatchdog enforces the cycle budget and the stall detector.
func (e *engine) checkWatchdog() error {
	if e.resolvedCount != e.lastResolved || e.bursts != e.lastBursts {
		e.lastResolved, e.lastBursts = e.resolvedCount, e.bursts
		e.lastProgressAt = e.clock
	}
	if e.ctx != nil && e.clock >= e.nextCtxCheck {
		e.nextCtxCheck = e.clock + ctxCheckInterval
		e.sampleQueueDepth()
		if err := e.ctx.Err(); err != nil {
			w := e.diagnostic("run canceled")
			w.Cause = err
			return w
		}
	}
	if e.maxCycles > 0 && e.clock >= e.maxCycles {
		w := e.diagnostic(fmt.Sprintf("cycle budget %d exhausted", e.maxCycles))
		w.Cause = ErrBudget
		return w
	}
	if e.clock-e.lastProgressAt >= e.stallWindow {
		// Event-time-aware progress: while the memory system still holds
		// scheduled work (a pending completion, a retrying burst, a queued
		// request), a future event is guaranteed — the wait is long, not
		// livelocked. This keeps a skip-ahead over a quiescent DRAM gap
		// (e.g. an injected latency spike or a deep retry backoff) from
		// being misclassified as a stall. Genuine livelock — every channel
		// down, nothing in flight — leaves the DRAM idle and still trips
		// here, at the same cycle and with the same classification as
		// before (Cause nil, Transient() false).
		if !e.dram.Idle() {
			e.lastProgressAt = e.clock
		} else {
			return e.diagnostic(fmt.Sprintf("no forward progress for %d cycles (livelock)", e.stallWindow))
		}
	}
	return nil
}

// loop is a scheduling core: how an engine advances its clock. Production
// always runs eventLoop, the discrete-event core in event.go; the golden
// identity tests also drive a cycle-by-cycle reference loop through the
// same seam (see simulate).
type loop struct {
	runUntil      func(e *engine, stopAt int64) (bool, error)
	drainInFlight func(e *engine) (int64, error)
}

// eventLoop is the discrete-event scheduling core.
var eventLoop = loop{(*engine).runUntilEvent, (*engine).drainInFlightEvent}

// runUntil advances the schedule until every activity resolves or the clock
// reaches stopAt (>= 0; pass a negative stopAt to run to completion). It
// returns true when the schedule finished. On a stop the engine is at a loop
// boundary — between cycles — which is exactly where a fault event may be
// applied.
func (e *engine) runUntil(stopAt int64) (bool, error) { return e.loop.runUntil(e, stopAt) }

// run resolves every activity and returns the makespan in cycles.
func (e *engine) run() (int64, error) {
	if _, err := e.runUntil(-1); err != nil {
		return 0, err
	}
	if e.resolvedCount != len(e.acts) {
		return 0, e.diagnostic("deadlock (dependency cycle)")
	}
	return e.makespan, nil
}

// quiescent reports whether no burst is queued or in flight anywhere.
func (e *engine) quiescent() bool {
	for _, rx := range e.running {
		if rx.inFlight > 0 {
			return false
		}
	}
	return e.dram.Idle()
}

// drainInFlight ticks the memory system until every outstanding burst lands,
// admitting no new transfers and issuing no new bursts — the quiescence
// protocol run when a fault event fires. It returns the number of cycles the
// drain took; that cost is part of the recovery overhead. The watchdog stays
// armed, so a drain that cannot finish (e.g. every channel down) aborts
// instead of spinning.
func (e *engine) drainInFlight() (int64, error) { return e.loop.drainInFlight(e) }

// stall holds the drained engine still for cycles while the fabric
// reconfigures, then readies it to resume: the clock and the watchdog's
// progress mark move on, and the memory system, idle through the stall,
// shifts its refresh schedule with them. The event core re-attempts every
// running transfer at the resume cycle, as the cycle loop does.
func (e *engine) stall(cycles int64) {
	e.clock += cycles
	e.lastProgressAt = e.clock
	e.dram.Delay(cycles)
	e.rebuildEventState()
}
