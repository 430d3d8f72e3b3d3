// Package dse reproduces the paper's design-space exploration: the
// parameter sweeps of Figure 7 (benchmark-normalised PCU area overhead as
// each PCU parameter varies), the parameter selection of Table 3, and the
// ASIC-to-generalized-architecture area-overhead ladder of Table 6.
package dse

import (
	"errors"
	"fmt"
	"math"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/stats"
	"plasticine/internal/workloads"
)

// Infeasible marks parameter values a benchmark cannot map to (the x marks
// in Figure 7).
var Infeasible = math.Inf(1)

// Bench couples a benchmark name with its virtual compute units.
type Bench struct {
	Name string
	PCUs []*compiler.VirtualPCU
	PMUs []*compiler.VirtualPMU
}

// LoadBenches allocates virtual units for the Figure 7 benchmark set: the
// twelve Table 4 workloads the paper sweeps (CNN is excluded there).
func LoadBenches() ([]*Bench, error) {
	var out []*Bench
	for _, b := range workloads.All() {
		if b.Name() == "CNN" {
			continue
		}
		bench, err := LoadBench(b.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, bench)
	}
	return out, nil
}

// LoadBench allocates virtual units for one registry benchmark by name —
// the single-benchmark form of LoadBenches, used by the auto-tuner to load
// a workload mix (including CNN, which the Figure 7 set excludes).
func LoadBench(name string) (*Bench, error) {
	b, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("dse: %s: %w", b.Name(), err)
	}
	v, err := compiler.Allocate(p)
	if err != nil {
		return nil, fmt.Errorf("dse: %s: %w", b.Name(), err)
	}
	return &Bench{Name: b.Name(), PCUs: v.PCUs, PMUs: v.PMUs}, nil
}

// PCUParam is one PCU datapath parameter of Table 3's design space: its
// name (which keys the dse/minimize cache entries), its value grid, and the
// arch.PCUParams field it sets.
type PCUParam struct {
	Name   string
	Values []int
	Field  func(p *arch.PCUParams) *int
}

// PCUSpace is the full design space of Table 3, used when minimising the
// remaining parameters. The auto-tuner's genome draws it in this order.
var PCUSpace = []PCUParam{
	{"stages", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		func(p *arch.PCUParams) *int { return &p.Stages }},
	{"registers", []int{2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16},
		func(p *arch.PCUParams) *int { return &p.Registers }},
	{"scalarIns", []int{1, 2, 3, 4, 5, 6, 8, 10},
		func(p *arch.PCUParams) *int { return &p.ScalarIns }},
	{"scalarOuts", []int{1, 2, 3, 4, 5, 6},
		func(p *arch.PCUParams) *int { return &p.ScalarOuts }},
	{"vectorIns", []int{2, 3, 4, 5, 6, 8, 10},
		func(p *arch.PCUParams) *int { return &p.VectorIns }},
	{"vectorOuts", []int{1, 2, 3, 4, 5, 6},
		func(p *arch.PCUParams) *int { return &p.VectorOuts }},
}

// panelValues are the x-axes Figure 7 actually plots.
var panelValues = map[string][]int{
	"stages":     {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
	"registers":  {2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16},
	"scalarIns":  {1, 2, 3, 4, 5, 6, 8, 10},
	"scalarOuts": {1, 2, 3, 4, 5, 6},
	"vectorIns":  {2, 3, 4, 5, 6, 8, 10},
	"vectorOuts": {1, 2, 3, 4, 5, 6},
}

// ErrUnknownParam reports a sweep grid naming a PCU parameter that does
// not exist; the wrapping error identifies the offending name.
var ErrUnknownParam = errors.New("dse: unknown parameter")

// pcuParam looks a PCUSpace parameter up by name.
func pcuParam(name string) (*PCUParam, error) {
	for i := range PCUSpace {
		if PCUSpace[i].Name == name {
			return &PCUSpace[i], nil
		}
	}
	return nil, fmt.Errorf("%w %q (want one of stages, registers, scalarIns, scalarOuts, vectorIns, vectorOuts)", ErrUnknownParam, name)
}

func maxParams() arch.PCUParams {
	return arch.PCUParams{
		Lanes: 16, Stages: 16, Registers: 16,
		ScalarIns: 16, ScalarOuts: 6, VectorIns: 10, VectorOuts: 6,
	}
}

// AnalyticalArea returns the total PCU area of a benchmark under p, or
// Infeasible if any unit cannot be partitioned. This is the simulation-free
// area model the sweeps minimise and the auto-tuner prunes with: the cost is
// one partitioning pass per virtual unit — no placement, routing or
// simulation is ever paid.
func AnalyticalArea(b *Bench, p arch.PCUParams, chip arch.ChipParams) float64 {
	unitArea := arch.PCUArea(p, chip)
	total := 0.0
	for _, u := range b.PCUs {
		parts, err := compiler.PartitionPCU(u, p)
		if err != nil {
			return Infeasible
		}
		total += float64(len(parts)*u.Unroll) * unitArea
	}
	return total
}

// CheckFeasible reports whether a benchmark can map onto params at all,
// without simulation: every virtual unit must partition under the PCU/PMU
// parameters, and the resulting physical unit demand must fit the chip's
// unit counts. A nil return means the benchmark passes the analytical
// screen (placement and routing can still fail — this is the cheap reject,
// not the full compile). Capacity shortfalls wrap compiler.ErrInsufficient,
// so callers classify them exactly like a compile failure.
func CheckFeasible(b *Bench, params arch.Params) error {
	part, err := demand(b, params)
	if err != nil {
		return fmt.Errorf("dse: %s: %w", b.Name, err)
	}
	if got, have := part.TotalPCUs, params.NumPCUs(); got > have {
		return fmt.Errorf("dse: %s: needs %d PCUs, chip has %d: %w", b.Name, got, have, compiler.ErrInsufficient)
	}
	if got, have := part.TotalPMUs, params.NumPMUs(); got > have {
		return fmt.Errorf("dse: %s: needs %d PMUs, chip has %d: %w", b.Name, got, have, compiler.ErrInsufficient)
	}
	return nil
}

// Panel is one Figure 7 sub-plot.
type Panel struct {
	Param  string
	Fixed  map[string]int // already-selected parameters (figure caption)
	Values []int
	// Overhead[bench][valueIdx] is AreaPCU/MinPCU - 1, or Infeasible.
	Benchmarks []string
	Overhead   [][]float64
	// Average[valueIdx] is the arithmetic-mean overhead over the
	// benchmarks feasible at that value, or Infeasible if none is.
	Average []float64
}

// panelSpec names one Figure 7 panel: the swept parameter and the
// previously selected parameters it holds fixed.
type panelSpec struct {
	id    string
	param string
	fixed map[string]int
}

// panelSpecs follows the Figure 7 caption: each parameter is swept with the
// previously selected parameters fixed at their chosen values.
var panelSpecs = []panelSpec{
	{"a", "stages", map[string]int{}},
	{"b", "registers", map[string]int{"stages": 6}},
	{"c", "scalarIns", map[string]int{"stages": 6, "registers": 6}},
	{"d", "scalarOuts", map[string]int{"stages": 6, "registers": 6, "scalarIns": 6}},
	{"e", "vectorIns", map[string]int{"stages": 6, "registers": 6}},
	{"f", "vectorOuts", map[string]int{"stages": 6, "registers": 6, "vectorIns": 3}},
}

// BestValue returns the swept value with the lowest average overhead,
// considering only values feasible for every benchmark.
func (p *Panel) BestValue() int {
	best, bestOv := -1, math.Inf(1)
	for i, v := range p.Values {
		allFeasible := true
		for _, row := range p.Overhead {
			if math.IsInf(row[i], 1) {
				allFeasible = false
				break
			}
		}
		if !allFeasible {
			continue
		}
		if p.Average[i] < bestOv {
			best, bestOv = v, p.Average[i]
		}
	}
	return best
}

// Format renders a panel as a text table (benchmarks x values).
func (p *Panel) Format() string {
	headers := []string{"Benchmark"}
	for _, v := range p.Values {
		headers = append(headers, fmt.Sprint(v))
	}
	t := stats.New(fmt.Sprintf("Figure 7: normalized area overhead vs %s (x = infeasible)", p.Param), headers...)
	for bi, name := range p.Benchmarks {
		row := []string{name}
		for _, ov := range p.Overhead[bi] {
			if math.IsInf(ov, 1) {
				row = append(row, "x")
			} else {
				row = append(row, fmt.Sprintf("%.0f%%", 100*ov))
			}
		}
		t.Add(row...)
	}
	avg := []string{"Average"}
	for _, ov := range p.Average {
		if math.IsInf(ov, 1) {
			avg = append(avg, "x")
		} else {
			avg = append(avg, fmt.Sprintf("%.0f%%", 100*ov))
		}
	}
	t.Add(avg...)
	return t.String()
}

// Table3Row is one parameter-selection result.
type Table3Row struct {
	Param  string
	Chosen int
	Paper  int
}

// FormatTable3 renders the selection table.
func FormatTable3(rows []Table3Row) string {
	t := stats.New("Table 3: selected PCU parameters (swept here vs paper)",
		"Parameter", "Selected", "Paper")
	for _, r := range rows {
		t.Add(r.Param, fmt.Sprint(r.Chosen), fmt.Sprint(r.Paper))
	}
	return t.String()
}
