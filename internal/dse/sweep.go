package dse

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"plasticine/internal/arch"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
)

// Sweep is the design-space exploration driver: the benchmark set, the chip
// organisation, and the evaluation engine (worker pool + design-point cache)
// every sweep draws from. The cache keeps the results a later call reads:
// each Figure 7 cell's descent (Table 3 computes them; later panels and
// resumed runs read them), each Table 6 row and each benchmark's unit
// demand. A single design-point probe is priced directly (area): it costs a
// few microseconds and allocates nothing, less than the key and entry that
// would hold it, and once its descent is cached nothing asks for it again.
//
// Benches and Chip must be treated as immutable once the sweep starts: jobs
// on many goroutines partition the same virtual units concurrently
// (PartitionPCU and CountPCUParts are read-only by contract), cache keys
// assume a Bench's name uniquely identifies its unit set, and NewSweep
// renders Chip into the keys once. A nil Engine runs sequentially and
// uncached.
type Sweep struct {
	Benches []*Bench
	Chip    arch.ChipParams
	Engine  *exec.Engine

	// chipKey is Chip rendered for cache keys, once per sweep.
	chipKey string

	// Design-point counters installed by SetMetrics; nil collectors
	// no-op, so an unmetered sweep pays nothing. Side-channel only:
	// sweep results never depend on them.
	mPoints     *metrics.Counter
	mInfeasible *metrics.Counter
}

// NewSweep builds a sweep over benches on chip, evaluated by eng (nil means
// sequential and uncached).
func NewSweep(benches []*Bench, chip arch.ChipParams, eng *exec.Engine) *Sweep {
	return &Sweep{Benches: benches, Chip: chip, Engine: eng, chipKey: fmt.Sprintf("%+v", chip)}
}

// SetMetrics installs design-point counters on the sweep: points counts
// the area evaluations computed, one per probe (a descent that a resumed or
// repeated sweep reads from the cache probes nothing), infeasible the
// subset whose virtual units could not map. Call before sweeping; a nil
// registry uninstalls.
func (s *Sweep) SetMetrics(r *metrics.Registry) {
	s.mPoints, s.mInfeasible = registerMetrics(r)
}

// RegisterMetrics pre-registers the sweep's metric families so a serving
// process's first /metricsz scrape shows them at zero; SetMetrics is
// idempotent against the same registry and attaches to the same
// collectors.
func RegisterMetrics(r *metrics.Registry) { registerMetrics(r) }

func registerMetrics(r *metrics.Registry) (points, infeasible *metrics.Counter) {
	return r.Counter("plasticine_dse_points_total",
			"DSE area evaluations computed, one per design-point probe."),
		r.Counter("plasticine_dse_infeasible_total",
			"Computed DSE area evaluations whose benchmark could not map.")
}

// area prices one design point: AnalyticalArea, counted.
func (s *Sweep) area(b *Bench, p arch.PCUParams) float64 {
	s.mPoints.Inc()
	a := AnalyticalArea(b, p, s.Chip)
	if math.IsInf(a, 1) {
		s.mInfeasible.Inc()
	}
	return a
}

// minPoint is the persisted form of a descent. Infeasibility is an explicit
// flag rather than +Inf because the persistent tier stores JSON, which
// cannot represent infinities.
type minPoint struct {
	Params     arch.PCUParams
	Area       float64 `json:",omitempty"`
	Infeasible bool    `json:",omitempty"`
}

// canonFixed renders a fixed-parameter map in sorted order, so maps with
// identical contents produce identical cache keys regardless of iteration
// order.
func canonFixed(fixed map[string]int) string {
	names := make([]string, 0, len(fixed))
	for n := range fixed {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d;", n, fixed[n])
	}
	return b.String()
}

// minimizeArea is minimizeAreaUncached from maxParams with fixed applied,
// through the cache: a whole descent result persists as one entry, so a
// resumed sweep skips the descents themselves. It fails when fixed names
// an unknown parameter, or when ctx ends while another job computes the
// same descent.
func (s *Sweep) minimizeArea(ctx context.Context, b *Bench, fixed map[string]int) (arch.PCUParams, float64, error) {
	start := maxParams()
	for name, v := range fixed {
		pp, err := pcuParam(name)
		if err != nil {
			return start, Infeasible, fmt.Errorf("dse: %s: fixed grid: %w", b.Name, err)
		}
		*pp.Field(&start) = v
	}
	k := exec.NewKey("dse/minimize", b.Name, canonFixed(fixed), s.chipKey)
	v, err := exec.CachedJSON(ctx, s.Engine.Cache(), k, func() (minPoint, error) {
		p, area := s.minimizeAreaUncached(b, start, fixed)
		if math.IsInf(area, 1) {
			return minPoint{Params: p, Infeasible: true}, nil
		}
		return minPoint{Params: p, Area: area}, nil
	})
	if err != nil {
		return maxParams(), Infeasible, err
	}
	if v.Infeasible {
		return v.Params, Infeasible, nil
	}
	return v.Params, v.Area, nil
}

// minimizeAreaUncached performs coordinate descent from p over the PCU
// parameters not in fixed to find the minimum total PCU area for a
// benchmark — the paper's "sweep the remaining space to find the minimum
// possible PCU area" (Section 3.7). The descent is sequential (each step
// depends on the last) and prices every point it probes directly.
func (s *Sweep) minimizeAreaUncached(b *Bench, p arch.PCUParams, fixed map[string]int) (arch.PCUParams, float64) {
	best := s.area(b, p)
	if math.IsInf(best, 1) {
		return p, Infeasible
	}
	order := []string{"stages", "registers", "vectorIns", "vectorOuts", "scalarIns", "scalarOuts"}
	for pass := 0; pass < 2; pass++ {
		for _, name := range order {
			if _, isFixed := fixed[name]; isFixed {
				continue
			}
			pp, _ := pcuParam(name) // order names only PCUSpace parameters
			bestV := *pp.Field(&p)
			for _, v := range pp.Values {
				q := p
				*pp.Field(&q) = v
				if a := s.area(b, q); a < best {
					best, bestV = a, v
				}
			}
			*pp.Field(&p) = bestV
		}
	}
	return p, best
}

// Figure7 computes one panel (a-f), fanning the benchmark x value grid
// across the engine's workers. Each job owns one cell of a preallocated
// areas matrix and reads only immutable inputs, so the panel — including its
// Format rendering — is byte-identical at any worker count.
func (s *Sweep) Figure7(ctx context.Context, panelID string) (*Panel, error) {
	spec := findPanel(panelID)
	if spec == nil {
		return nil, fmt.Errorf("dse: unknown Figure 7 panel %q (want a-f)", panelID)
	}
	values := panelValues[spec.param]
	panel := &Panel{Param: spec.param, Fixed: spec.fixed, Values: values}
	nV := len(values)
	areas := make([][]float64, len(s.Benches))
	for i := range areas {
		areas[i] = make([]float64, nV)
	}
	err := s.Engine.Pool().Map(ctx, len(s.Benches)*nV, func(ctx context.Context, i int) error {
		bi, vi := i/nV, i%nV
		b, v := s.Benches[bi], values[vi]
		fixed := map[string]int{spec.param: v}
		for k, fv := range spec.fixed {
			fixed[k] = fv
		}
		_, area, err := s.minimizeArea(ctx, b, fixed)
		if err != nil {
			return fmt.Errorf("dse: panel %s, %s=%d: %w", panelID, spec.param, v, err)
		}
		areas[bi][vi] = area
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range s.Benches {
		panel.Benchmarks = append(panel.Benchmarks, b.Name)
		row := areas[bi]
		min := Infeasible
		for _, a := range row {
			if a < min {
				min = a
			}
		}
		for i := range row {
			if math.IsInf(row[i], 1) {
				row[i] = Infeasible
			} else {
				row[i] = row[i]/min - 1
			}
		}
		panel.Overhead = append(panel.Overhead, row)
	}
	panel.Average = make([]float64, nV)
	for i := range values {
		sum, n := 0.0, 0
		for _, row := range panel.Overhead {
			if !math.IsInf(row[i], 1) {
				sum += row[i]
				n++
			}
		}
		panel.Average[i] = Infeasible
		if n > 0 {
			panel.Average[i] = sum / float64(n)
		}
	}
	return panel, nil
}

// Table3 runs the panel sequence and reports the selected value per
// parameter next to the paper's choice. Panels run in order (each fixes the
// previous selections) with full internal parallelism. No two panels share a
// cell, so Table 3 computes each of its descents once, and a later Figure 7
// panel over the same cache (or tier) reads its cells from there.
func (s *Sweep) Table3(ctx context.Context) ([]Table3Row, error) {
	paper := map[string]int{
		"stages": 6, "registers": 6, "scalarIns": 6,
		"scalarOuts": 5, "vectorIns": 3, "vectorOuts": 3,
	}
	var out []Table3Row
	for _, spec := range panelSpecs {
		p, err := s.Figure7(ctx, spec.id)
		if err != nil {
			return nil, err
		}
		out = append(out, Table3Row{Param: spec.param, Chosen: p.BestValue(), Paper: paper[spec.param]})
	}
	return out, nil
}

// Table6 computes the generalization ladder, one benchmark row per job; the
// geometric mean folds the finished rows in bench order, so the table is
// identical at any worker count.
func (s *Sweep) Table6(ctx context.Context, params arch.Params) ([]Ladder, error) {
	rows := make([]Ladder, len(s.Benches))
	err := s.Engine.Pool().Map(ctx, len(s.Benches), func(ctx context.Context, i int) error {
		r, err := s.table6Row(ctx, s.Benches[i], params)
		if err != nil {
			return err
		}
		rows[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	geo := Ladder{Name: "GeoMean", A: 1, B: 1, C: 1, D: 1, E: 1, CumB: 1, CumC: 1, CumD: 1, CumE: 1}
	for _, r := range rows {
		geo.A *= r.A
		geo.B *= r.B
		geo.C *= r.C
		geo.D *= r.D
		geo.E *= r.E
		geo.CumB *= r.CumB
		geo.CumC *= r.CumC
		geo.CumD *= r.CumD
		geo.CumE *= r.CumE
	}
	n := float64(len(rows))
	pow := func(x float64) float64 { return math.Pow(x, 1/n) }
	geo.A, geo.B, geo.C, geo.D, geo.E = pow(geo.A), pow(geo.B), pow(geo.C), pow(geo.D), pow(geo.E)
	geo.CumB, geo.CumC, geo.CumD, geo.CumE = pow(geo.CumB), pow(geo.CumC), pow(geo.CumD), pow(geo.CumE)
	return append(rows, geo), nil
}

// RatioStudy evaluates PMU:PCU provisioning choices at a fixed total unit
// count. Per-benchmark unit demand is independent of the ratio under test,
// so it is computed once per benchmark — in parallel, through the cache —
// and every ratio row reads the same demand table.
func (s *Sweep) RatioStudy(ctx context.Context, params arch.Params) ([]RatioRow, error) {
	demands := make([]unitDemand, len(s.Benches))
	err := s.Engine.Pool().Map(ctx, len(s.Benches), func(ctx context.Context, i int) error {
		b := s.Benches[i]
		k := exec.NewKey("dse/demand", b.Name, params.Key())
		d, err := exec.CachedJSON(ctx, s.Engine.Cache(), k, func() (unitDemand, error) {
			part, err := demand(b, params)
			if err != nil {
				return unitDemand{}, err
			}
			return unitDemand{PCUs: part.TotalPCUs, PMUs: part.TotalPMUs}, nil
		})
		if err != nil {
			return err
		}
		demands[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ratioRows(demands, params), nil
}

func findPanel(id string) *panelSpec {
	for i := range panelSpecs {
		if panelSpecs[i].id == id {
			return &panelSpecs[i]
		}
	}
	return nil
}
