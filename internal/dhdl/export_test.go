package dhdl

import (
	"context"
	"math"
	"reflect"
	"testing"

	"plasticine/internal/pattern"
)

// Memories is what both interpreters expose about on-chip memory after a
// run.
type Memories interface {
	SRAMData(*SRAM) []pattern.Value
	RegValue(*Reg) pattern.Value
	FIFOData(*FIFOMem) []pattern.Value
}

// TraceReference runs the tree-walking oracle.
func TraceReference(p *Program, hook ExecHook) (Memories, error) {
	st, err := traceReference(p, hook)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// SnapshotDRAM copies the contents of every bound DRAM buffer.
func SnapshotDRAM(p *Program) [][]uint32 {
	out := make([][]uint32, len(p.DRAMs))
	for i, d := range p.DRAMs {
		if d.Data == nil {
			continue
		}
		out[i] = make([]uint32, d.Len())
		dramOf(d).load(0, out[i])
	}
	return out
}

// RestoreDRAM writes a snapshot back into the bound DRAM buffers.
func RestoreDRAM(p *Program, snap [][]uint32) {
	for i, d := range p.DRAMs {
		if d.Data == nil {
			continue
		}
		dramOf(d).store(0, snap[i])
	}
}

// CheckAgainstOracle runs p on the tree-walking oracle and on the compiled
// interpreter from the same DRAM inputs and fails t unless both agree bit
// for bit: the error (or its absence), every DRAM buffer, every declared
// SRAM, register and FIFO, and the sequence of execution events. It
// returns the compiled run's state and error.
func CheckAgainstOracle(t testing.TB, p *Program) (*State, error) {
	t.Helper()
	return checkAgainstOracle(t, p, nil)
}

// LaneStats counts what the lane path did in one compiled run.
type LaneStats struct {
	Eligible     int // compute leaves whose bodies run in lane tiles
	Blocks       int // tiles evaluated, of one row or several
	MultiBlock   int // loops whose tiles, or innermost loop runs whose blocks, numbered more than one
	Replayed     int // one-row blocks that faulted and reran one lane at a time
	Tiles        int // tiles that spanned several rows
	FaultedTiles int // tiles of several rows that faulted and reran row by row
	Fused        int // fused multiply-accumulates in the bodies that ran
}

func (s *LaneStats) add(o LaneStats) {
	s.Eligible += o.Eligible
	s.Blocks += o.Blocks
	s.MultiBlock += o.MultiBlock
	s.Replayed += o.Replayed
	s.Tiles += o.Tiles
	s.FaultedTiles += o.FaultedTiles
	s.Fused += o.Fused
}

// CheckLanesAgainstOracle is CheckAgainstOracle that also reports the
// compiled run's lane path.
func CheckLanesAgainstOracle(t testing.TB, p *Program) (LaneStats, error) {
	t.Helper()
	var st LaneStats
	for _, c := range p.Leaves() {
		if c.Kind == ComputeKind && laneEligible(c) {
			st.Eligible++
		}
	}
	fused := map[*Controller]int{}
	_, err := checkAgainstOracle(t, p, func(c *Controller, tile laneTile) {
		st.Blocks++
		if tile.index == 1 {
			st.MultiBlock++
		}
		switch {
		case tile.rows > 1 && tile.faulted:
			st.Tiles++
			st.FaultedTiles++
		case tile.rows > 1:
			st.Tiles++
		case tile.faulted:
			st.Replayed++
		}
		fused[c] = tile.fused
	})
	for _, n := range fused {
		st.Fused += n
	}
	return st, err
}

func checkAgainstOracle(t testing.TB, p *Program, onTile func(*Controller, laneTile)) (*State, error) {
	t.Helper()
	inputs := SnapshotDRAM(p)
	var refEvents, gotEvents []ExecEvent
	ref, refErr := traceReference(p, func(ev *ExecEvent) { refEvents = append(refEvents, keepEvent(ev)) })
	refDRAM := SnapshotDRAM(p)
	RestoreDRAM(p, inputs)
	got, gotErr := trace(context.Background(), p, func(ev *ExecEvent) { gotEvents = append(gotEvents, keepEvent(ev)) }, onTile)

	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: oracle error %v, compiled error %v", p.Name, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Errorf("%s: oracle error %q, compiled error %q", p.Name, refErr, gotErr)
		}
		return nil, gotErr
	}
	if gotDRAM := SnapshotDRAM(p); !reflect.DeepEqual(refDRAM, gotDRAM) {
		for i := range refDRAM {
			if !reflect.DeepEqual(refDRAM[i], gotDRAM[i]) {
				t.Errorf("%s: DRAM %q differs", p.Name, p.DRAMs[i].Name)
			}
		}
	}
	for _, s := range p.SRAMs {
		sameValues(t, p.Name+": SRAM "+s.Name, ref.SRAMData(s), got.SRAMData(s))
	}
	for _, r := range p.Regs {
		sameValues(t, p.Name+": register "+r.Name, []pattern.Value{ref.RegValue(r)}, []pattern.Value{got.RegValue(r)})
	}
	for _, f := range p.FIFOs {
		sameValues(t, p.Name+": FIFO "+f.Name, ref.FIFOData(f), got.FIFOData(f))
	}
	if len(refEvents) != len(gotEvents) {
		t.Fatalf("%s: oracle emitted %d events, compiled %d", p.Name, len(refEvents), len(gotEvents))
	}
	for i := range refEvents {
		if !reflect.DeepEqual(refEvents[i], gotEvents[i]) {
			t.Fatalf("%s: event %d differs:\noracle   %+v\ncompiled %+v", p.Name, i, refEvents[i], gotEvents[i])
		}
	}
	return got, nil
}

// keepEvent copies an event with its Env and SparseAddrs, which are valid
// only during the hook's call.
func keepEvent(ev *ExecEvent) ExecEvent {
	k := *ev
	k.Env = append([]int32(nil), ev.Env...)
	k.SparseAddrs = append([]int32(nil), ev.SparseAddrs...)
	return k
}

// sameValues compares values by type and bit pattern, so NaNs compare
// equal to themselves and -0 differs from +0.
func sameValues(t testing.TB, what string, want, got []pattern.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d values, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.T != g.T || math.Float32bits(w.F) != math.Float32bits(g.F) || w.I != g.I || w.B != g.B {
			t.Errorf("%s[%d] = %+v, want %+v", what, i, g, w)
			return
		}
	}
}
