package sim

import (
	"sort"

	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/trace"
)

// This file is the bridge between the engine and the observability subsystem
// (internal/trace). Nothing here runs inside the per-cycle loop: when a run
// finishes, the resolved activity graph is replayed once into the Collector —
// per-unit slices with stall attribution, link traffic, DRAM channel counters
// and fabric-wide recovery windows. Cost is O(activities + routes), so even
// an armed Collector leaves simulation speed essentially untouched; a nil
// Collector skips everything.

// depCause maps a dependency edge to the stall cause a unit waiting behind
// it reports, following the paper's control protocols (Section 3.5):
// N-buffer write-after-read credits are output backpressure, waiting on a
// transfer is a DRAM wait, a sequential token barrier is a pipeline drain,
// and waiting on an upstream compute is input starvation.
func depCause(d dep) trace.StallCause {
	if d.war {
		return trace.CauseOutputBackpressure
	}
	switch d.on.kind {
	case actTransfer:
		return trace.CauseDRAMWait
	case actBarrier:
		return trace.CauseDrain
	}
	return trace.CauseInputStarved
}

// gapCause attributes the idle gap before an activity's start to its binding
// dependency — the edge whose gate released last. When nothing gates the
// activity the gap is plain idleness.
func gapCause(a *activity) trace.StallCause {
	cause := trace.CauseNone
	best := int64(-1)
	for i := range a.deps {
		if t := a.deps[i].gateTime(); t > best {
			best = t
			cause = depCause(a.deps[i])
		}
	}
	return cause
}

// busyOf is the useful-work portion of a resolved activity's interval:
// computes and barriers occupy their unit for the whole interval; a transfer
// is busy only on cycles its AG issued or landed bursts (plus the command
// fill), the remainder being DRAM wait.
func busyOf(a *activity) int64 {
	span := a.end - a.start
	if a.kind != actTransfer || a.nBursts == 0 {
		return span
	}
	busy := a.busy + a.fill
	if busy > span {
		busy = span
	}
	return busy
}

// emitTrace replays a finished run into the engine's Collector. windows are
// fabric-wide recovery stalls (drain + reconfig per survived fault); pass nil
// for uninterrupted runs. No-op without a Collector.
func (e *engine) emitTrace(m *compiler.Mapping, windows []trace.Window) {
	if e.rec == nil {
		return
	}
	rec := e.rec
	for i, u := range e.units {
		rec.RegisterUnit(i, u.name, u.origin, u.kind)
	}

	byUnit := make([][]*activity, len(e.units))
	for _, a := range e.acts {
		if a.unit < 0 || a.unit >= len(byUnit) || !a.resolved {
			continue
		}
		byUnit[a.unit] = append(byUnit[a.unit], a)
	}
	for u, acts := range byUnit {
		sort.Slice(acts, func(i, j int) bool { return acts[i].start < acts[j].start })
		for _, a := range acts {
			rec.Slice(u, actLabel(a), a.start, a.end, busyOf(a), gapCause(a))
			if a.hiWater > 0 {
				rec.FIFOHighWater(u, int(a.hiWater))
			}
		}
	}

	// Network links: every statically routed link, with the DRAM traffic that
	// crossed it. Each transfer leaf's bytes ride every link of every route
	// touching its AG node (the command and response path through the
	// switches); link bandwidth is one vector (Lanes x 4 bytes) per cycle.
	if m != nil && m.Netlist != nil && m.Routes != nil {
		bytesOf := map[*dhdl.Controller]int64{}
		for _, a := range e.acts {
			if a.kind == actTransfer && a.leaf != nil {
				bytesOf[a.leaf] += int64(a.nBursts) * burstBytes
			}
		}
		agOf := map[int]int64{} // AG node index -> bytes
		for leaf, total := range bytesOf {
			if idx, ok := m.Netlist.AGNode[leaf]; ok {
				agOf[idx] += total
			}
		}
		linkBytes := map[string]int64{}
		for _, rt := range m.Routes.Routes {
			bytes := agOf[rt.From] + agOf[rt.To]
			if bytes == 0 {
				continue
			}
			for h := 0; h+1 < len(rt.Hops); h++ {
				linkBytes[compiler.LinkKey(rt.Hops[h], rt.Hops[h+1])] += bytes
			}
		}
		bpc := float64(m.Params.PCU.Lanes) * 4
		for key, n := range m.Routes.LinkUse {
			rec.Link(key, n, linkBytes[key], bpc)
		}
	}

	for ci, cs := range e.dram.ChannelStats() {
		rec.DRAMChannel(ci, cs)
	}

	for _, w := range windows {
		rec.Window(w.Cause, w.From, w.To)
	}
	rec.Finish(e.makespan)
}

// recoveryWindows derives the fabric-wide stall intervals from a run's
// survived faults: a drain window while outstanding bursts land, then a
// reconfig window while new configurations stream in.
func recoveryWindows(rs *RecoveryStats) []trace.Window {
	if rs == nil {
		return nil
	}
	var out []trace.Window
	for _, re := range rs.Events {
		out = append(out,
			trace.Window{Cause: trace.CauseDrain, From: re.At, To: re.At + re.DrainCycles},
			trace.Window{Cause: trace.CauseReconfig, From: re.At + re.DrainCycles,
				To: re.At + re.DrainCycles + re.ReconfigCycles})
	}
	return out
}
