package dse

import (
	"fmt"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/stats"
)

// RatioRow summarises one PMU:PCU provisioning choice (Section 3.7: "we
// also experimented with multiple ratios of PMUs to PCUs ... larger ratios
// improved unit utilization on some benchmarks, [but] were less energy
// efficient").
type RatioRow struct {
	PMUs, PCUs int // ratio expressed in units per 2-unit cell group

	Fit int // benchmarks whose unit demand fits the chip

	// AvgUnitUtil is the mean fraction of provisioned units the fitting
	// benchmarks occupy.
	AvgUnitUtil float64

	// EnergyProxy is chip area times mean active power fraction — the
	// quantity the paper traded against utilization (lower is better).
	EnergyProxy float64
}

// unitDemand is a benchmark's physical unit requirement — the only part of
// a compiler.Partitioned the ratio study consumes, reduced to a flat struct
// so it can persist in the disk cache tier.
type unitDemand struct {
	PCUs, PMUs int
}

// ratioRows folds per-benchmark unit demands into the provisioning table.
// Pure function of its inputs.
func ratioRows(demands []unitDemand, params arch.Params) []RatioRow {
	total := params.Chip.Rows * params.Chip.Cols
	ratios := []struct{ pmu, pcu int }{
		{1, 3}, // PCU-heavy
		{1, 1}, // the paper's choice
		{2, 2}, // same ratio, sanity duplicate of 1:1 grouping
		{3, 1}, // PMU-heavy
	}
	var out []RatioRow
	for _, r := range dedupRatios(ratios) {
		nPMU := total * r.pmu / (r.pmu + r.pcu)
		nPCU := total - nPMU
		row := RatioRow{PMUs: r.pmu, PCUs: r.pcu}
		var utilSum float64
		for _, d := range demands {
			if d.PCUs <= nPCU && d.PMUs <= nPMU {
				row.Fit++
				utilSum += (float64(d.PCUs) + float64(d.PMUs)) / float64(total)
			}
		}
		if row.Fit > 0 {
			row.AvgUnitUtil = utilSum / float64(row.Fit)
		}
		// Energy proxy: provisioned silicon times the per-unit active
		// power, normalised per fitting benchmark.
		area := float64(nPCU)*arch.PCUArea(params.PCU, params.Chip) +
			float64(nPMU)*arch.PMUArea(params.PMU, params.Chip)
		row.EnergyProxy = area * (1 - row.AvgUnitUtil)
		out = append(out, row)
	}
	return out
}

// dedupRatios drops equivalent ratios (2:2 == 1:1).
func dedupRatios(in []struct{ pmu, pcu int }) []struct{ pmu, pcu int } {
	seen := map[float64]bool{}
	var out []struct{ pmu, pcu int }
	for _, r := range in {
		k := float64(r.pmu) / float64(r.pcu)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// demand computes a benchmark's physical unit requirement under params.
func demand(b *Bench, params arch.Params) (*compiler.Partitioned, error) {
	v := &compiler.Virtual{PCUs: b.PCUs, PMUs: b.PMUs}
	return compiler.Partition(v, params)
}

// FormatRatios renders the study.
func FormatRatios(rows []RatioRow) string {
	t := stats.New("PMU:PCU provisioning study (Section 3.7)",
		"PMU:PCU", "Fit (of 12)", "Avg unit util", "Idle-area proxy")
	for _, r := range rows {
		t.Add(fmt.Sprintf("%d:%d", r.PMUs, r.PCUs),
			fmt.Sprint(r.Fit), stats.Pct(r.AvgUnitUtil), stats.F(r.EnergyProxy))
	}
	return t.String()
}
