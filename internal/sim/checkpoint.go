package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"

	"plasticine/internal/dram"
)

// ErrBadCheckpoint is wrapped by every restore failure: a checkpoint taken
// from a different activity graph, or one whose state does not fit the
// engine it is restored into (unknown activity ids, a transfer running
// twice, bursts or request tags out of range, a DRAM shape or landing order
// the memory system rejects).
var ErrBadCheckpoint = errors.New("sim: bad checkpoint")

// ActState is one activity's dynamic state in a checkpoint.
type ActState struct {
	Resolved   bool
	NDepsLeft  int32
	Start, End int64
	Busy       int64 // observability: AG-busy cycles (retired transfers)
	HiWater    int32 // observability: outstanding-burst FIFO peak
}

// RunState is one in-flight transfer's AG state in a checkpoint.
type RunState struct {
	Act       int32
	NextBurst int32
	InFlight  int32
	Completed int32
	Requeue   []int32 // burst indices awaiting reissue after lost work
	Busy      int64   // observability: AG-busy cycles so far
	LastBusy  int64   // last cycle counted busy (-1 = none)
	HiWater   int32   // outstanding-burst FIFO peak so far
}

// Checkpoint is a complete, deterministic snapshot of a paused simulation:
// the clock, every activity's status, the start heap, each running
// transfer's AG, the watchdog's progress trackers, and the full DRAM state
// (queues, banks, in-flight and retrying requests, fault PRNG). It is a
// plain value that shares no memory with the engine that took it, so that
// engine can run on without changing it. Restoring it into an engine built
// from the same program resumes execution cycle-identically to a run that
// never paused.
type Checkpoint struct {
	GraphHash uint64 // fingerprint of the activity graph this state belongs to

	Clock          int64
	Makespan       int64
	Bursts         int64
	Resolved       int32
	LastResolved   int32
	LastBursts     int64
	LastProgressAt int64

	Acts    []ActState
	Ready   []int32 // activity ids, stack order
	Waiting []int32 // activity ids, heap-internal order
	Running []RunState

	DRAM *dram.MemState
}

// graphFingerprint hashes the static shape of an activity graph: ids, kinds,
// durations, burst lists and dependency edges. Two graphs built from the
// same program by the same builder hash identically; any structural drift
// (different program, changed coalescing) is caught at restore time. The
// hash never leaves the process, so it folds whole words: FNV-1a's step
// with a 64-bit word for a byte, then a shift that carries high bits down.
func graphFingerprint(acts []*activity) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	w := func(v uint64) {
		h = (h ^ v) * 1099511628211 // FNV-64 prime
		h ^= h >> 29
	}
	w(uint64(len(acts)))
	for _, a := range acts {
		w(uint64(a.id))
		w(uint64(a.kind))
		w(uint64(a.dur))
		w(uint64(a.fill))
		if a.write {
			w(1)
		} else {
			w(0)
		}
		w(uint64(len(a.bursts)))
		for _, b := range a.bursts {
			w(b)
		}
		w(uint64(len(a.deps)))
		for _, d := range a.deps {
			w(uint64(d.on.id))
			w(uint64(d.kind))
		}
	}
	return h
}

// checkpoint captures the engine at a loop boundary (between cycles). Every
// slice it holds is freshly allocated, as are dram.Snapshot's.
func (e *engine) checkpoint() *Checkpoint {
	cp := &Checkpoint{
		GraphHash:      graphFingerprint(e.acts),
		Clock:          e.clock,
		Makespan:       e.makespan,
		Bursts:         e.bursts,
		Resolved:       int32(e.resolvedCount),
		LastResolved:   int32(e.lastResolved),
		LastBursts:     e.lastBursts,
		LastProgressAt: e.lastProgressAt,
	}
	for _, a := range e.acts {
		cp.Acts = append(cp.Acts, ActState{Resolved: a.resolved,
			NDepsLeft: int32(a.nDepsLeft), Start: a.start, End: a.end,
			Busy: a.busy, HiWater: a.hiWater})
	}
	for _, a := range e.ready {
		cp.Ready = append(cp.Ready, int32(a.id))
	}
	for _, a := range e.waiting {
		cp.Waiting = append(cp.Waiting, int32(a.id))
	}
	for _, rx := range e.running {
		rs := RunState{Act: int32(rx.act.id), NextBurst: int32(rx.nextBurst),
			InFlight: int32(rx.inFlight), Completed: int32(rx.completed),
			Busy: rx.busy, LastBusy: rx.lastBusy, HiWater: int32(rx.hiWater)}
		for _, i := range rx.requeue {
			rs.Requeue = append(rs.Requeue, int32(i))
		}
		cp.Running = append(cp.Running, rs)
	}
	if e.dram != nil {
		cp.DRAM = e.dram.Snapshot()
	}
	return cp
}

// restore loads a checkpoint into an engine freshly built from the same
// program (acts rebuilt, DRAM fresh with the current fault view injected).
// It copies what it reads and keeps no reference to cp.
func (e *engine) restore(cp *Checkpoint) error {
	if h := graphFingerprint(e.acts); h != cp.GraphHash {
		return fmt.Errorf("%w: graph fingerprint %x does not match checkpoint %x",
			ErrBadCheckpoint, h, cp.GraphHash)
	}
	if len(cp.Acts) != len(e.acts) {
		return fmt.Errorf("%w: %d activity states for %d activities", ErrBadCheckpoint, len(cp.Acts), len(e.acts))
	}
	for i, a := range e.acts {
		if a.id != i {
			return fmt.Errorf("%w: activity %d has id %d", ErrBadCheckpoint, i, a.id)
		}
	}
	lookup := func(id int32) (*activity, error) {
		if id < 0 || int(id) >= len(e.acts) {
			return nil, fmt.Errorf("%w: unknown activity id %d", ErrBadCheckpoint, id)
		}
		return e.acts[id], nil
	}
	e.clock = cp.Clock
	e.makespan = cp.Makespan
	e.bursts = cp.Bursts
	e.resolvedCount = int(cp.Resolved)
	e.lastResolved = int(cp.LastResolved)
	e.lastBursts = cp.LastBursts
	e.lastProgressAt = cp.LastProgressAt
	e.started = true
	for i, a := range e.acts {
		st := cp.Acts[i]
		a.resolved = st.Resolved
		a.nDepsLeft = int(st.NDepsLeft)
		a.start, a.end = st.Start, st.End
		a.busy, a.hiWater = st.Busy, st.HiWater
	}
	e.ready = e.ready[:0]
	for _, id := range cp.Ready {
		a, err := lookup(id)
		if err != nil {
			return err
		}
		e.ready = append(e.ready, a)
	}
	e.waiting = e.waiting[:0]
	for _, id := range cp.Waiting {
		a, err := lookup(id)
		if err != nil {
			return err
		}
		e.waiting = append(e.waiting, a)
	}
	heap.Init(&e.waiting) // stored order is already a valid heap; Init keeps it
	e.running = e.running[:0]
	e.byAct = make([]*runningXfer, len(e.acts))
	for _, rs := range cp.Running {
		a, err := lookup(rs.Act)
		if err != nil {
			return err
		}
		if e.byAct[a.id] != nil {
			return fmt.Errorf("%w: transfer %d running twice", ErrBadCheckpoint, a.id)
		}
		rx := &runningXfer{act: a, nextBurst: int(rs.NextBurst),
			inFlight: int(rs.InFlight), completed: int(rs.Completed),
			busy: rs.Busy, lastBusy: rs.LastBusy, hiWater: int(rs.HiWater)}
		if rx.nextBurst < 0 || rx.nextBurst > len(a.bursts) {
			return fmt.Errorf("%w: transfer %d next burst %d out of range", ErrBadCheckpoint, a.id, rx.nextBurst)
		}
		for _, i := range rs.Requeue {
			if i < 0 || int(i) >= len(a.bursts) {
				return fmt.Errorf("%w: transfer %d requeued burst %d out of range", ErrBadCheckpoint, a.id, i)
			}
			rx.requeue = append(rx.requeue, int(i))
		}
		e.running = append(e.running, rx)
		e.byAct[a.id] = rx
	}
	if cp.DRAM != nil {
		if e.dram == nil {
			return fmt.Errorf("%w: checkpoint carries DRAM state but the engine has no memory system", ErrBadCheckpoint)
		}
		if err := e.checkTags(cp.DRAM); err != nil {
			return err
		}
		if err := e.dram.Restore(cp.DRAM); err != nil {
			return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	e.rebuildEventState()
	return nil
}

// checkTags requires every request in a memory snapshot to name a burst of
// a running transfer: landing or losing it indexes that transfer.
func (e *engine) checkTags(st *dram.MemState) error {
	for _, r := range slices.Concat(slices.Concat(st.Queued...), st.Pending, st.Retry) {
		actID, burst := splitTag(r.Tag)
		if actID < 0 || actID >= len(e.byAct) || e.byAct[actID] == nil {
			return fmt.Errorf("%w: request tag %#x names no running transfer", ErrBadCheckpoint, r.Tag)
		}
		if n := len(e.byAct[actID].act.bursts); burst >= n {
			return fmt.Errorf("%w: request tag %#x names burst %d of transfer %d, which has %d",
				ErrBadCheckpoint, r.Tag, burst, actID, n)
		}
	}
	return nil
}
