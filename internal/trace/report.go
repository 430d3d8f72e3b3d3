package trace

import (
	"fmt"
	"sort"

	"plasticine/internal/dram"
)

// BoundClass names the dominant bottleneck of a run.
type BoundClass string

const (
	ComputeBound  BoundClass = "compute-bound"
	MemoryBound   BoundClass = "memory-bound"
	NetworkBound  BoundClass = "network-bound"
	RecoveryBound BoundClass = "recovery-bound"
)

// UnitProfile is one unit's cycle accounting. The invariant
// Busy + sum(Stalls) + Idle == Total holds exactly: every cycle of the run
// is attributed to exactly one bucket.
type UnitProfile struct {
	Name string `json:"name"`
	// Origin is the source-level pattern node the unit was compiled from
	// (falls back to Name for hand-written DHDL).
	Origin string `json:"origin"`
	Kind   string `json:"kind"` // "pcu" or "ag"

	Total int64 `json:"total_cycles"`
	Busy  int64 `json:"busy_cycles"`
	Idle  int64 `json:"idle_cycles"`
	// Stalls indexes by StallCause; Stalls[CauseNone] is always zero (that
	// bucket is Idle).
	Stalls [NumCauses]int64 `json:"stall_cycles"`

	Slices        int `json:"activity_slices"`
	FIFOHighWater int `json:"fifo_high_water"`
}

// StallTotal sums every stall bucket.
func (u *UnitProfile) StallTotal() int64 {
	var s int64
	for _, v := range u.Stalls {
		s += v
	}
	return s
}

// DominantStall returns the largest stall bucket (CauseNone when the unit
// never stalled).
func (u *UnitProfile) DominantStall() (StallCause, int64) {
	best, bestN := CauseNone, int64(0)
	for c := CauseInputStarved; c < NumCauses; c++ {
		if u.Stalls[c] > bestN {
			best, bestN = c, u.Stalls[c]
		}
	}
	return best, bestN
}

// ChannelProfile is one DRAM channel's counters plus derived ratios.
type ChannelProfile struct {
	Channel int `json:"channel"`
	dram.ChanStats
	RowHitRate float64 `json:"row_hit_rate"`
}

// LinkProfile is one switch-fabric link's utilization.
type LinkProfile struct {
	Name   string  `json:"name"`
	Routes int     `json:"routes"`
	Bytes  int64   `json:"bytes"`
	Util   float64 `json:"utilization"` // bytes / (total cycles * link bytes-per-cycle)
}

// Report is the rolled-up profile of one run: the paper-style utilization
// table plus the named bottleneck.
type Report struct {
	Benchmark   string `json:"benchmark,omitempty"`
	TotalCycles int64  `json:"total_cycles"`

	Units    []UnitProfile    `json:"units"`
	Links    []LinkProfile    `json:"links,omitempty"`
	Channels []ChannelProfile `json:"dram_channels,omitempty"`
	Windows  []Window         `json:"recovery_windows,omitempty"`

	Bottleneck BoundClass `json:"bottleneck"`
	// BottleneckWhy is the one-line justification for the classification.
	BottleneckWhy string `json:"bottleneck_why"`
}

// Busy/stall/idle aggregates across all units.
func (r *Report) aggregate() (busy, idle int64, stalls [NumCauses]int64) {
	for i := range r.Units {
		u := &r.Units[i]
		busy += u.Busy
		idle += u.Idle
		for c, v := range u.Stalls {
			stalls[c] += v
		}
	}
	return
}

// classification thresholds, checked in order. A run is recovery-bound when
// fabric-wide drain/reconfig windows eat at least recoveryFrac of the
// makespan; memory-bound when dram-wait is the dominant stall cause and
// stalls outweigh stallDominates of busy work (a direct measurement, so it
// outranks the link estimate); network-bound when some link carries traffic
// at or above linkUtilFrac of its bandwidth or more static routes than a
// link holds without time multiplexing (routes > linkRouteCap);
// compute-bound otherwise.
const (
	recoveryFrac   = 0.10
	linkUtilFrac   = 0.75
	linkRouteCap   = 4
	stallDominates = 0.5
)

// classify names the bottleneck from the rolled-up counters.
func (r *Report) classify() {
	busy, _, stalls := r.aggregate()
	var windowCycles int64
	for _, w := range r.Windows {
		windowCycles += w.To - w.From
	}
	if r.TotalCycles > 0 && float64(windowCycles) >= recoveryFrac*float64(r.TotalCycles) {
		r.Bottleneck = RecoveryBound
		r.BottleneckWhy = fmt.Sprintf("recovery drain+reconfig windows cover %d of %d cycles (>= %.0f%%)",
			windowCycles, r.TotalCycles, 100*recoveryFrac)
		return
	}
	var stallSum int64
	for _, v := range stalls {
		stallSum += v
	}
	dram := stalls[CauseDRAMWait]
	dominant, dominantN := CauseNone, int64(0)
	for c := CauseInputStarved; c < NumCauses; c++ {
		if stalls[c] > dominantN {
			dominant, dominantN = c, stalls[c]
		}
	}
	if dominant == CauseDRAMWait && float64(stallSum) >= stallDominates*float64(busy) {
		r.Bottleneck = MemoryBound
		r.BottleneckWhy = fmt.Sprintf("dram-wait is the dominant stall (%d cycles vs %d busy across units)",
			dram, busy)
		return
	}
	var maxLink LinkProfile
	for _, l := range r.Links {
		if l.Util > maxLink.Util || (l.Util == maxLink.Util && l.Routes > maxLink.Routes) {
			maxLink = l
		}
	}
	if maxLink.Util >= linkUtilFrac || maxLink.Routes > linkRouteCap {
		r.Bottleneck = NetworkBound
		r.BottleneckWhy = fmt.Sprintf("link %s carries %d routes at %.0f%% of link bandwidth",
			maxLink.Name, maxLink.Routes, 100*maxLink.Util)
		return
	}
	r.Bottleneck = ComputeBound
	r.BottleneckWhy = fmt.Sprintf("units are busy %d cycles vs %d stalled; no link or channel saturated",
		busy, stallSum)
}

// Report rolls the collected events into per-unit cycle accounting. For
// every unit, Busy + sum(Stalls) + Idle == TotalCycles exactly: activity
// intervals contribute busy (and dram-wait for the non-busy part of
// transfer intervals), inter-activity gaps are attributed to the recorded
// gap cause, fabric-wide drain/reconfig windows claim the gap portions they
// cover, and whatever remains is idle.
func (c *Collector) Report() *Report {
	r := &Report{TotalCycles: c.total, Windows: append([]Window(nil), c.windows...)}
	for _, u := range c.units {
		up := UnitProfile{Name: u.name, Origin: u.origin, Kind: u.kind.String(),
			Total: c.total, FIFOHighWater: u.hiWater, Slices: len(u.slices)}
		if up.Origin == "" {
			up.Origin = u.name
		}
		slices := append([]Slice(nil), u.slices...)
		sort.Slice(slices, func(i, j int) bool { return slices[i].Start < slices[j].Start })
		cursor := int64(0)
		for _, s := range slices {
			if gap := s.Start - cursor; gap > 0 {
				c.attributeGap(&up, cursor, s.Start, s.Gap)
			}
			length := s.End - s.Start
			busy := s.Busy
			if busy > length {
				busy = length
			}
			up.Busy += busy
			up.Stalls[CauseDRAMWait] += length - busy
			if s.End > cursor {
				cursor = s.End
			}
		}
		if cursor < c.total {
			c.attributeGap(&up, cursor, c.total, CauseNone)
		}
		up.Stalls[CauseNone] = 0
		// Idle is the exact remainder, so the invariant holds by
		// construction even if slices overlapped the total imperfectly.
		up.Idle = up.Total - up.Busy - up.StallTotal()
		if up.Idle < 0 {
			up.Idle = 0
			up.Total = up.Busy + up.StallTotal()
		}
		r.Units = append(r.Units, up)
	}
	for i, ch := range c.channels {
		cp := ChannelProfile{Channel: i, ChanStats: ch}
		if n := ch.RowHits + ch.RowMisses + ch.RowConflicts; n > 0 {
			cp.RowHitRate = float64(ch.RowHits) / float64(n)
		}
		r.Channels = append(r.Channels, cp)
	}
	for _, l := range c.links {
		lp := LinkProfile{Name: l.Name, Routes: l.Routes, Bytes: l.Bytes}
		if c.total > 0 && l.BytesPerCycle > 0 {
			lp.Util = float64(l.Bytes) / (float64(c.total) * l.BytesPerCycle)
		}
		r.Links = append(r.Links, lp)
	}
	sort.Slice(r.Links, func(i, j int) bool {
		if r.Links[i].Util != r.Links[j].Util {
			return r.Links[i].Util > r.Links[j].Util
		}
		return r.Links[i].Name < r.Links[j].Name
	})
	r.classify()
	return r
}

// attributeGap splits [from,to) between recovery windows (drain/reconfig)
// and the gap's own cause (CauseNone lands in the idle remainder).
func (c *Collector) attributeGap(up *UnitProfile, from, to int64, cause StallCause) {
	remaining := to - from
	for _, w := range c.windows {
		lo, hi := w.From, w.To
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			up.Stalls[w.Cause] += hi - lo
			remaining -= hi - lo
		}
	}
	if remaining > 0 && cause != CauseNone {
		up.Stalls[cause] += remaining
	}
}
