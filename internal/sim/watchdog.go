package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"plasticine/internal/trace"
)

// ErrWatchdog is wrapped by every simulator abort: cycle-budget overruns,
// stalls (no forward progress within the stall window), and dependency
// deadlocks. Callers distinguish a watchdog abort from a compile or
// functional failure with errors.Is(err, ErrWatchdog).
var ErrWatchdog = errors.New("sim: watchdog abort")

// ErrBudget marks the specific watchdog abort caused by exhausting
// Options.MaxCycles. It is carried as the WatchdogError's Cause, so both
// errors.Is(err, ErrWatchdog) and errors.Is(err, ErrBudget) hold — callers
// that set an exploratory budget can tell "ran out of budget" apart from
// "livelocked" without string matching.
var ErrBudget = errors.New("sim: cycle budget exhausted")

// defaultStallWindow is the progress watchdog armed on every run: if no
// activity resolves, no burst completes, and no transfer is admitted for
// this many cycles, the schedule is livelocked (e.g. every DRAM channel
// down, or a retry storm) and the engine aborts with a diagnostic instead
// of spinning forever. Real schedules complete bursts every few hundred
// cycles, so the window only trips on genuine livelock.
const defaultStallWindow = 2_000_000

// StuckActivity describes one unresolved activity in a watchdog dump.
type StuckActivity struct {
	ID       int
	Name     string
	Kind     string // "compute", "transfer", "barrier"
	DepsLeft int
}

// StuckTransfer describes one in-flight transfer in a watchdog dump.
type StuckTransfer struct {
	Name      string
	Completed int // bursts finished
	Total     int // bursts in the transfer
	InFlight  int // bursts submitted and not yet completed
}

// StalledUnit is one physical unit in the watchdog's livelock dump: how long
// it has gone without completing work and what its next activity is waiting
// on (the observability layer's stall taxonomy).
type StalledUnit struct {
	Name       string
	StalledFor int64  // cycles since the unit last finished an activity
	Cause      string // dominant stall cause, e.g. "dram-wait"
}

// WatchdogError is the structured diagnostic the engine returns when it
// aborts a run: what tripped, how far the schedule got, which activities
// are stuck, which transfers are mid-flight, how full each DRAM channel
// queue is, and which units have been stalled longest.
type WatchdogError struct {
	Reason     string
	Cycle      int64
	Resolved   int // activities resolved before the abort
	Total      int // activities in the schedule
	Stuck      []StuckActivity
	InFlight   []StuckTransfer
	DRAMQueues []int // per-channel request-queue occupancy
	TopStalled []StalledUnit

	// Cause classifies the abort beyond the human-readable Reason: ErrBudget
	// for a MaxCycles overrun, the context error (context.Canceled /
	// DeadlineExceeded) for a canceled run, nil for stalls and deadlocks.
	Cause error
}

// Transient classifies the abort for retry policies (exec.Transienter): an
// abort whose Cause is a dying context is transient — the cancellation may
// have come from a failing sibling or an expired per-job deadline, not from
// this design point — while budget exhaustion (ErrBudget), stalls and
// deadlocks are properties of the deterministic simulation itself and would
// simply recur on retry.
func (e *WatchdogError) Transient() bool {
	return e.Cause != nil &&
		(errors.Is(e.Cause, context.Canceled) || errors.Is(e.Cause, context.DeadlineExceeded))
}

// Unwrap exposes both the ErrWatchdog sentinel and the specific Cause, so
// errors.Is works against either.
func (e *WatchdogError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrWatchdog, e.Cause}
	}
	return []error{ErrWatchdog}
}

func (e *WatchdogError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %s at cycle %d (%d/%d activities resolved)",
		ErrWatchdog, e.Reason, e.Cycle, e.Resolved, e.Total)
	const maxListed = 8
	if len(e.Stuck) > 0 {
		b.WriteString("\n  unresolved:")
		for i, s := range e.Stuck {
			if i == maxListed {
				fmt.Fprintf(&b, " ... (%d more)", len(e.Stuck)-maxListed)
				break
			}
			fmt.Fprintf(&b, " %s[%s#%d deps:%d]", s.Name, s.Kind, s.ID, s.DepsLeft)
		}
	}
	if len(e.InFlight) > 0 {
		b.WriteString("\n  in-flight transfers:")
		for i, t := range e.InFlight {
			if i == maxListed {
				fmt.Fprintf(&b, " ... (%d more)", len(e.InFlight)-maxListed)
				break
			}
			fmt.Fprintf(&b, " %s[%d/%d bursts, %d in flight]", t.Name, t.Completed, t.Total, t.InFlight)
		}
	}
	if len(e.DRAMQueues) > 0 {
		fmt.Fprintf(&b, "\n  DRAM queue occupancy: %v", e.DRAMQueues)
	}
	if len(e.TopStalled) > 0 {
		b.WriteString("\n  most-stalled units:")
		for _, u := range e.TopStalled {
			fmt.Fprintf(&b, " %s[%s for %d cycles]", u.Name, u.Cause, u.StalledFor)
		}
	}
	return b.String()
}

func kindName(k actKind) string {
	switch k {
	case actCompute:
		return "compute"
	case actTransfer:
		return "transfer"
	}
	return "barrier"
}

func actLabel(a *activity) string {
	if a.leaf != nil {
		return a.leaf.Name
	}
	return fmt.Sprintf("barrier%d", a.id)
}

// diagnostic snapshots the engine into a WatchdogError.
func (e *engine) diagnostic(reason string) *WatchdogError {
	w := &WatchdogError{
		Reason:   reason,
		Cycle:    e.clock,
		Resolved: e.resolvedCount,
		Total:    len(e.acts),
	}
	for _, rx := range e.running {
		w.InFlight = append(w.InFlight, StuckTransfer{
			Name:      actLabel(rx.act),
			Completed: rx.completed,
			Total:     rx.act.nBursts,
			InFlight:  rx.inFlight,
		})
	}
	w.DRAMQueues = e.dram.QueueOccupancy()
	for _, a := range e.acts {
		if a.resolved {
			continue
		}
		w.Stuck = append(w.Stuck, StuckActivity{
			ID: a.id, Name: actLabel(a), Kind: kindName(a.kind), DepsLeft: a.nDepsLeft,
		})
	}
	w.TopStalled = e.topStalled(5)
	return w
}

// topStalled ranks physical units by how long they have gone without
// completing an activity, attributing each to the stall cause of its next
// pending activity: a transfer mid-flight is a DRAM wait; otherwise the
// first unsatisfied dependency classifies it (see depCause). Units whose
// work is all resolved are not stalled and are skipped.
func (e *engine) topStalled(max int) []StalledUnit {
	if len(e.units) == 0 {
		return nil
	}
	lastEnd := make([]int64, len(e.units))
	next := make([]*activity, len(e.units))
	running := make(map[int]bool, len(e.running))
	for _, rx := range e.running {
		running[rx.act.id] = true
	}
	for _, a := range e.acts {
		if a.unit < 0 || a.unit >= len(e.units) {
			continue
		}
		if a.resolved {
			if a.end > lastEnd[a.unit] {
				lastEnd[a.unit] = a.end
			}
		} else if next[a.unit] == nil || a.id < next[a.unit].id {
			next[a.unit] = a
		}
	}
	var out []StalledUnit
	for u, a := range next {
		if a == nil {
			continue
		}
		cause := trace.CauseInputStarved
		if running[a.id] {
			cause = trace.CauseDRAMWait
		} else {
			for i := range a.deps {
				if !a.deps[i].on.resolved {
					cause = depCause(a.deps[i])
					break
				}
			}
		}
		stalled := e.clock - lastEnd[u]
		if stalled < 0 {
			stalled = 0
		}
		out = append(out, StalledUnit{Name: e.units[u].name, StalledFor: stalled, Cause: cause.String()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StalledFor != out[j].StalledFor {
			return out[i].StalledFor > out[j].StalledFor
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > max {
		out = out[:max]
	}
	return out
}
