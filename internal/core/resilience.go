package core

import (
	"errors"
	"fmt"

	"plasticine/internal/compiler"
	"plasticine/internal/stats"
)

// ResilienceRow is one point of the graceful-degradation sweep: the
// makespan of a benchmark with a given fraction of compute and memory
// tiles disabled, relative to the pristine fabric.
type ResilienceRow struct {
	Fraction float64 // fraction of PCUs and PMUs disabled
	PCUsDown int
	PMUsDown int

	Feasible bool
	Cycles   int64
	// Slowdown is Cycles over the pristine (fraction 0) cycles.
	Slowdown float64
	// Reason explains an infeasible point (insufficient healthy resources).
	Reason string
}

// isInfeasible reports whether a run failed because the program no longer
// fits the healthy fabric — a reportable sweep outcome, not an error.
func isInfeasible(err error) bool {
	return errors.Is(err, compiler.ErrInsufficient) || errors.Is(err, compiler.ErrNoRoute)
}

// DefaultResilienceFractions is the sweep the resilience subcommand runs:
// 0 to 50% of tiles disabled.
func DefaultResilienceFractions() []float64 {
	return []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50}
}

// FormatResilience renders a sweep as a text table.
func FormatResilience(name string, seed int64, rows []ResilienceRow) string {
	t := stats.New(
		fmt.Sprintf("Resilience: %s makespan vs fraction of disabled tiles (seed %d)", name, seed),
		"Disabled", "PCUs down", "PMUs down", "Cycles", "Slowdown", "Status")
	for _, r := range rows {
		status := "ok"
		cycles, slow := fmt.Sprint(r.Cycles), fmt.Sprintf("%.3fx", r.Slowdown)
		if !r.Feasible {
			status = "does not fit"
			cycles, slow = "-", "-"
		}
		t.Add(fmt.Sprintf("%.0f%%", 100*r.Fraction),
			fmt.Sprint(r.PCUsDown), fmt.Sprint(r.PMUsDown), cycles, slow, status)
	}
	return t.String()
}
