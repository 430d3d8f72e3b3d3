// Package trace is the cycle-level observability subsystem: per-unit
// busy/stall/idle counters with stall-cause attribution, per-link network
// utilization, FIFO occupancy high-water marks and per-channel DRAM
// counters, rolled into a paper-style utilization report (Section 5 explains
// every speedup through exactly these numbers) and exportable as Chrome
// trace-event JSON.
//
// The simulator talks to the subsystem through the Recorder interface; a nil
// Recorder disables tracing entirely and leaves the simulation hot loop
// unchanged. The package has no dependencies outside the standard library,
// so every layer (sim, dram, core, cmd) can feed it without import cycles.
package trace

import "fmt"

// StallCause classifies why a unit was not doing useful work. The taxonomy
// follows the paper's control protocols (Section 3.5) plus the recovery
// controller's fabric-wide stalls:
//
//   - input-starved: waiting on an upstream producer's results (token or
//     streaming credit not yet granted).
//   - output-backpressured: waiting for downstream consumers to drain the
//     buffer version this unit wants to overwrite (N-buffer WAR credits).
//   - dram-wait: waiting on the memory system — outstanding bursts in
//     flight, a full channel queue, or a load dependency.
//   - drain: pipeline drain at a sequential token barrier, or the recovery
//     controller's quiescence protocol.
//   - reconfig: fabric stalled while new unit/switch configurations stream
//     in after a mid-run repair.
type StallCause int

const (
	// CauseNone marks a gap with no attributable dependency: plain idleness.
	CauseNone StallCause = iota
	CauseInputStarved
	CauseOutputBackpressure
	CauseDRAMWait
	CauseDrain
	CauseReconfig

	// NumCauses sizes per-cause accumulator arrays.
	NumCauses
)

var causeNames = [NumCauses]string{
	CauseNone:               "idle",
	CauseInputStarved:       "input-starved",
	CauseOutputBackpressure: "output-backpressured",
	CauseDRAMWait:           "dram-wait",
	CauseDrain:              "drain",
	CauseReconfig:           "reconfig",
}

func (c StallCause) String() string {
	if c < 0 || c >= NumCauses {
		return fmt.Sprintf("cause(%d)", int(c))
	}
	return causeNames[c]
}

// UnitKind classifies a traced unit.
type UnitKind int

const (
	// UnitCompute is a PCU pipeline (one unroll copy-lane of a compute leaf).
	UnitCompute UnitKind = iota
	// UnitTransfer is an address generator plus its coalescing unit.
	UnitTransfer
)

func (k UnitKind) String() string {
	if k == UnitTransfer {
		return "ag"
	}
	return "pcu"
}

// DRAMChannelCounters is one memory channel's activity, mirrored from the
// DRAM model (kept as plain fields so this package stays dependency-free).
type DRAMChannelCounters struct {
	Reads, Writes int64
	RowHits       int64
	RowMisses     int64
	RowConflicts  int64
	Retries       int64
	MaxQueueOcc   int
}

// Window is a fabric-wide stall interval (recovery drain or reconfiguration)
// during which no unit makes forward progress.
type Window struct {
	Cause    StallCause
	From, To int64
}

// Recorder receives observability events from the simulator. All methods are
// called outside the per-cycle hot loop: unit activity is replayed once from
// the resolved schedule when a run finishes, so a nil Recorder costs nothing
// and a live one costs O(activities), not O(cycles).
type Recorder interface {
	// RegisterUnit declares a physical unit before any slice referencing it.
	// origin names the source-level pattern node (or controller) the unit was
	// compiled from; empty falls back to name.
	RegisterUnit(id int, name, origin string, kind UnitKind)
	// Slice records one activity interval [start,end) on a unit. busy is the
	// portion of the interval spent doing useful work (the remainder is
	// dram-wait for transfers); gap attributes the idle time between the
	// unit's previous slice and start (CauseNone = plain idle).
	Slice(unit int, label string, start, end, busy int64, gap StallCause)
	// FIFOHighWater records a unit's outstanding-burst FIFO occupancy peak.
	FIFOHighWater(unit int, depth int)
	// Link records one switch-fabric link's static route count and the DRAM
	// traffic bytes that crossed it during the run.
	Link(name string, routes int, bytes int64, bytesPerCycle float64)
	// DRAMChannel records one memory channel's counters.
	DRAMChannel(ch int, c DRAMChannelCounters)
	// Window records a fabric-wide drain/reconfig stall interval.
	Window(cause StallCause, from, to int64)
	// Finish seals the trace with the run's total cycle count (makespan).
	Finish(totalCycles int64)
}

// Slice is one recorded activity interval (exported for the Chrome trace).
type Slice struct {
	Unit  int
	Label string
	Start int64
	End   int64
	Busy  int64
	Gap   StallCause
}

type unitInfo struct {
	name    string
	origin  string
	kind    UnitKind
	hiWater int
	slices  []Slice
}

// LinkStat is one link's recorded usage.
type LinkStat struct {
	Name          string
	Routes        int
	Bytes         int64
	BytesPerCycle float64
}

// Collector is the standard Recorder: it accumulates everything a run emits
// and rolls it into a Report (and a Chrome trace) on demand.
type Collector struct {
	units    []unitInfo
	links    []LinkStat
	channels []DRAMChannelCounters
	windows  []Window
	total    int64
	finished bool
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

var _ Recorder = (*Collector)(nil)

// RegisterUnit implements Recorder.
func (c *Collector) RegisterUnit(id int, name, origin string, kind UnitKind) {
	for id >= len(c.units) {
		c.units = append(c.units, unitInfo{})
	}
	c.units[id].name = name
	if origin == "" {
		origin = name
	}
	c.units[id].origin = origin
	c.units[id].kind = kind
}

// Slice implements Recorder.
func (c *Collector) Slice(unit int, label string, start, end, busy int64, gap StallCause) {
	if unit < 0 || unit >= len(c.units) {
		return
	}
	if end < start {
		end = start
	}
	if busy > end-start {
		busy = end - start
	}
	c.units[unit].slices = append(c.units[unit].slices,
		Slice{Unit: unit, Label: label, Start: start, End: end, Busy: busy, Gap: gap})
}

// FIFOHighWater implements Recorder.
func (c *Collector) FIFOHighWater(unit int, depth int) {
	if unit < 0 || unit >= len(c.units) {
		return
	}
	if depth > c.units[unit].hiWater {
		c.units[unit].hiWater = depth
	}
}

// Link implements Recorder.
func (c *Collector) Link(name string, routes int, bytes int64, bytesPerCycle float64) {
	c.links = append(c.links, LinkStat{Name: name, Routes: routes, Bytes: bytes, BytesPerCycle: bytesPerCycle})
}

// DRAMChannel implements Recorder.
func (c *Collector) DRAMChannel(ch int, cc DRAMChannelCounters) {
	for ch >= len(c.channels) {
		c.channels = append(c.channels, DRAMChannelCounters{})
	}
	c.channels[ch] = cc
}

// Window implements Recorder.
func (c *Collector) Window(cause StallCause, from, to int64) {
	if to > from {
		c.windows = append(c.windows, Window{Cause: cause, From: from, To: to})
	}
}

// Finish implements Recorder.
func (c *Collector) Finish(totalCycles int64) {
	c.total = totalCycles
	c.finished = true
}
