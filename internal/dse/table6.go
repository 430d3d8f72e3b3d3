package dse

import (
	"fmt"
	"math"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/exec"
	"plasticine/internal/stats"
)

// Ladder is one benchmark's row of Table 6: the successive area overheads
// of (a) making ASIC datapaths reconfigurable, (b) homogenising PMUs within
// the application, (c) homogenising PCUs, (d) generalising PMUs across
// applications, and (e) generalising PCUs.
type Ladder struct {
	Name string
	// Successive ratios.
	A, B, C, D, E float64
	// Cumulative products after each step.
	CumB, CumC, CumD, CumE float64
}

// unitAreas returns the ASIC and heterogeneous-reconfigurable areas of one
// virtual PCU. Both use the unit's own best parameterisation (per-unit
// minimizeArea), so heterogeneous sizing is never worse than the
// homogeneous compromise; the ASIC variant strips configuration overhead
// (hardwired ops, exactly the live registers, no input FIFOs or control).
// owner/ui qualify the cache identity: unit names repeat across benchmarks,
// so the single-unit pseudo-bench is named by its owning benchmark and unit
// index to keep design-point cache keys unique.
func (s *Sweep) unitAreas(owner string, ui int, u *compiler.VirtualPCU) (asic, het float64) {
	chip := s.Chip
	single := &Bench{Name: fmt.Sprintf("%s/unit%d:%s", owner, ui, u.Name), PCUs: []*compiler.VirtualPCU{u}}
	best, area, err := s.minimizeArea(single, map[string]int{})
	if err != nil || math.IsInf(area, 1) {
		best = maxParams()
	}
	parts, err := compiler.PartitionPCU(u, best)
	if err != nil {
		parts, err = compiler.PartitionPCU(u, maxParams())
		if err != nil {
			// Pathological unit; approximate with raw op counts.
			ops := len(u.Ops)
			if ops == 0 {
				ops = 1
			}
			asic = float64(ops*u.Lanes) * arch.ASICFUArea() * float64(u.Unroll)
			return asic, asic / 0.4
		}
		best = maxParams()
	}
	// Heterogeneous units are sized with their own lane count; the
	// homogeneous steps later charge the full 16-lane box (which is where
	// sequential single-lane loops start paying, Section 4.3).
	best.Lanes = u.Lanes
	unitArea := arch.PCUArea(best, chip)
	for _, ph := range parts {
		het += unitArea
		fu := float64(ph.StagesUsed*u.Lanes) * arch.ASICFUArea()
		live := ph.MaxLive
		if live == 0 {
			live = 1
		}
		regs := float64(ph.StagesUsed*live*u.Lanes) * arch.ASICRegArea()
		asic += fu + regs
	}
	return asic * float64(u.Unroll), het * float64(u.Unroll)
}

func pmuKB(m *compiler.VirtualPMU) float64 {
	return float64(m.Mem.Size*m.NBuf) * 4 / 1024
}

// asicPMUArea is an exact-sized fixed SRAM with hardwired addressing.
func asicPMUArea(m *compiler.VirtualPMU) float64 {
	sram := arch.ASICSRAMArea(pmuKB(m))
	addr := float64(m.AddrOps+m.RMWOps) * arch.ScalarALUArea() * 0.4
	return float64(m.Unroll) * (sram + addr)
}

// hetPMUArea is a configurable scratchpad sized exactly for this memory.
func hetPMUArea(m *compiler.VirtualPMU) float64 {
	sram := pmuKB(m) * arch.SRAMAreaPerKB()
	addr := float64(m.AddrOps+m.RMWOps) * arch.ScalarALUArea()
	return float64(m.Unroll) * (sram + addr + arch.ControlArea())
}

// table6Row computes one benchmark's ladder row through the cache: the
// finished row is one persistent-tier entry, so a resumed Table 6 run skips
// completed benchmarks outright.
func (s *Sweep) table6Row(b *Bench, params arch.Params) (Ladder, error) {
	k := exec.NewKey("dse/table6-row", b.Name, params.Key(), s.chipKey)
	return exec.CachedJSON(s.Engine.Cache(), k, func() (Ladder, error) {
		return s.table6RowUncached(b, params)
	})
}

func (s *Sweep) table6RowUncached(b *Bench, params arch.Params) (Ladder, error) {
	chip := s.Chip
	var asicP, hetP float64
	for ui, u := range b.PCUs {
		a, h := s.unitAreas(b.Name, ui, u)
		asicP += a
		hetP += h
	}
	var asicM, hetM, maxHet float64
	var pmuCount int
	for _, m := range b.PMUs {
		asicM += asicPMUArea(m)
		h := hetPMUArea(m) / float64(m.Unroll)
		hetM += h * float64(m.Unroll)
		if h > maxHet {
			maxHet = h
		}
		pmuCount += m.Unroll
	}
	// b: homogeneous PMUs within the app (all sized like the largest).
	homM := maxHet * float64(pmuCount)
	// c: homogeneous PCUs within the app (best single box).
	_, homP, err := s.minimizeArea(b, map[string]int{})
	if err != nil {
		return Ladder{}, err
	}
	if math.IsInf(homP, 1) {
		homP = hetP // cannot homogenise; treat as unchanged
	}
	// d: generalized PMUs (the final 256 KB design).
	var genM float64
	for _, m := range b.PMUs {
		pm, err := compiler.PartitionPMU(m, params)
		if err != nil {
			return Ladder{}, err
		}
		genM += float64(pm.Units()) * arch.PMUArea(params.PMU, chip)
	}
	// e: generalized PCUs (the final PCU parameters).
	genP := s.benchArea(b, params.PCU)
	if math.IsInf(genP, 1) {
		genP = homP
	}

	a0 := asicP + asicM
	a1 := hetP + hetM
	a2 := hetP + homM
	a3 := homP + homM
	a4 := homP + genM
	a5 := genP + genM
	return Ladder{
		Name: b.Name,
		A:    a1 / a0,
		B:    a2 / a1, CumB: a2 / a0,
		C: a3 / a2, CumC: a3 / a0,
		D: a4 / a3, CumD: a4 / a0,
		E: a5 / a4, CumE: a5 / a0,
	}, nil
}

// FormatTable6 renders the ladder in the paper's layout.
func FormatTable6(rows []Ladder) string {
	t := stats.New("Table 6: successive (cumulative) area overheads of generalization",
		"Benchmark", "a. Het", "b. HomPMU", "c. HomPCU", "d. GenPMU", "e. GenPCU")
	for _, r := range rows {
		t.Add(r.Name,
			stats.F(r.A),
			stats.F(r.B)+" ("+stats.F(r.CumB)+")",
			stats.F(r.C)+" ("+stats.F(r.CumC)+")",
			stats.F(r.D)+" ("+stats.F(r.CumD)+")",
			stats.F(r.E)+" ("+stats.F(r.CumE)+")")
	}
	return t.String()
}
