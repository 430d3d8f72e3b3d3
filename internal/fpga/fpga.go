// Package fpga models the paper's baseline: an Altera Stratix V FPGA
// running DHDL-generated designs (Section 4.4) — 150 MHz fabric clock,
// 48 GB of DDR3-800 across 6 channels operating ganged as one wide channel
// (37.5 GB/s peak), with spatial designs whose parallelism is bounded by
// logic resources and by how many banked, double-buffered BRAM lanes the
// design can sustain.
//
// The model is resource-analytic: it takes a workload profile (flops,
// streamed bytes, random accesses, pipeline ops per lane, sequential
// iterations) plus the per-benchmark utilizations the paper measured on
// real hardware (Table 7), and computes the compute-bound, memory-bound
// and serialization components of runtime.
package fpga

import "math"

// Model describes the FPGA platform.
type Model struct {
	ALMs int // adaptive logic modules
	DSPs int // hard multipliers

	// ALMsPerFPUnit is logic cost of one soft floating-point operator.
	ALMsPerFPUnit int

	// MaxBankedLanes caps inner-loop parallelism: every extra lane needs
	// another bank and port on each double-buffered BRAM tile, and the
	// paper found useful inner parallelization saturates between 8 and 32
	// (Section 3.7).
	MaxBankedLanes int

	ClockHz float64

	// BandwidthBps is peak DRAM bandwidth; MemEfficiency derates it for
	// achievable streaming throughput.
	BandwidthBps  float64
	MemEfficiency float64

	// RandomAccessBytes is the effective cost of a 4-byte random access:
	// with all channels ganged into one wide channel, every access
	// occupies a full wide burst (Section 4.5).
	RandomAccessBytes float64
}

// StratixV returns the paper's baseline board.
func StratixV() Model {
	return Model{
		ALMs:              695000,
		DSPs:              1963,
		ALMsPerFPUnit:     800,
		MaxBankedLanes:    32,
		ClockHz:           150e6,
		BandwidthBps:      37.5e9,
		MemEfficiency:     0.8,
		RandomAccessBytes: 256,
	}
}

// Workload are the inputs the runtime estimate needs; they mirror
// workloads.Profile but keep this package dependency-free.
type Workload struct {
	Flops          float64
	DenseBytes     float64
	SparseAccesses float64
	OpsPerLane     int
	// HeavyOpsPerLane counts transcendental/divide ops per lane; soft
	// floating-point exp/log/div/sqrt cost several times a mul-add in
	// FPGA logic.
	HeavyOpsPerLane int
	SeqIters        int
	PipeDepth       int
	// SeqChildren is the number of dependent pipeline stages inside one
	// sequential iteration; each pays a fill at the fabric clock.
	SeqChildren int
	LogicUtil   float64 // measured, Table 7
	MemUtil     float64 // measured, Table 7
}

// heavyOpFactor is the logic cost of a transcendental or divider relative
// to a soft mul-add.
const heavyOpFactor = 8

// Lanes returns the parallel pipeline lanes the design sustains.
func (m Model) Lanes(w Workload) float64 {
	if w.OpsPerLane < 1 {
		w.OpsPerLane = 1
	}
	laneALMs := float64(w.OpsPerLane+(heavyOpFactor-1)*w.HeavyOpsPerLane) * float64(m.ALMsPerFPUnit)
	dspLanes := float64(m.DSPs) * w.LogicUtil / float64(w.OpsPerLane)
	logicLanes := float64(m.ALMs) * w.LogicUtil / laneALMs
	lanes := math.Min(math.Min(dspLanes, logicLanes), float64(m.MaxBankedLanes))
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// ComputeTime returns the compute-bound runtime in seconds. Loop-carried
// outer iterations (SeqIters) cannot pipeline across each other: every
// iteration pays its dependent children's fills plus its share of the
// element stream.
func (m Model) ComputeTime(w Workload) float64 {
	if w.Flops == 0 {
		return 0
	}
	elements := w.Flops / float64(max(1, w.OpsPerLane))
	if w.SeqIters > 0 {
		perIter := elements / float64(w.SeqIters) / m.Lanes(w)
		fills := float64(max(1, w.SeqChildren) * w.PipeDepth)
		perIterMem := m.MemoryTime(w) / float64(w.SeqIters) * m.ClockHz
		return float64(w.SeqIters) * (perIter + fills + perIterMem) / m.ClockHz
	}
	return elements / (m.Lanes(w) * m.ClockHz)
}

// MemoryTime returns the memory-bound runtime in seconds.
func (m Model) MemoryTime(w Workload) float64 {
	bw := m.BandwidthBps * m.MemEfficiency
	return w.DenseBytes/bw + w.SparseAccesses*m.RandomAccessBytes/m.BandwidthBps
}

// Runtime estimates the benchmark's runtime in seconds. Designs that
// exhaust BRAM (memory utilization above doubleBufferLimit) cannot
// double-buffer their tiles, so compute serialises with DRAM transfers
// (the paper's OuterProduct/GEMM/Black-Scholes discussion, Section 4.5);
// otherwise the phases overlap and the slower one dominates. Sequential
// workloads fold their per-iteration memory time into ComputeTime.
func (m Model) Runtime(w Workload) float64 {
	if w.SeqIters > 0 {
		return m.ComputeTime(w)
	}
	if w.MemUtil > doubleBufferLimit {
		return m.ComputeTime(w) + m.MemoryTime(w)
	}
	return math.Max(m.ComputeTime(w), m.MemoryTime(w))
}

// doubleBufferLimit is the BRAM utilization beyond which designs could no
// longer afford double buffering.
const doubleBufferLimit = 0.7

// Power estimates board power in watts. The paper's PowerPlay measurements
// (Table 7) cluster between 21.5 and 34.4 W, tracking logic utilization.
func (m Model) Power(w Workload) float64 {
	const (
		static  = 18.0 // board + static + memory interface
		dynamic = 19.0 // fully-utilized fabric dynamic power
	)
	return static + dynamic*(0.6*w.LogicUtil+0.4*w.MemUtil)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
