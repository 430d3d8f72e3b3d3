package dse

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"plasticine/internal/arch"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
)

// Sweep is the design-space exploration driver: the benchmark set, the chip
// organisation, and the evaluation engine (worker pool + design-point cache)
// every sweep draws from. Figure 7, Table 3, Table 6 and the ratio study all
// hit overlapping regions of the parameter space — Table 3 alone re-visits
// each panel's grid — so sharing one cache means no design point is ever
// partitioned twice.
//
// Benches and Chip must be treated as immutable once the sweep starts: jobs
// on many goroutines partition the same virtual units concurrently
// (PartitionPCU is read-only by contract), cache keys assume a Bench's name
// uniquely identifies its unit set, and NewSweep renders Chip into the keys
// once. A nil Engine runs sequentially and uncached.
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
// area evaluations actually computed (cache misses only — a resumed or
// repeated sweep that reads the cache computes nothing), infeasible the
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
			"DSE design points computed (area evaluations that missed the cache)."),
		r.Counter("plasticine_dse_infeasible_total",
			"Computed DSE design points whose benchmark could not map.")
}

// areaPoint and minPoint are the persisted forms of design-point results.
// Infeasibility is an explicit flag rather than +Inf because the persistent
// tier stores JSON, which cannot represent infinities.
type areaPoint struct {
	Area       float64 `json:",omitempty"`
	Infeasible bool    `json:",omitempty"`
}

type minPoint struct {
	Params     arch.PCUParams
	Area       float64 `json:",omitempty"`
	Infeasible bool    `json:",omitempty"`
}

// areaKey is the cache key of a bench's PCU area under p: the bench's name
// plus every PCU and chip parameter. It is exec.NewKey("dse/pcu-area",
// b.Name, p as %+v renders it, s.chipKey), built on the stack and copied
// into the key, its one allocation.
func (s *Sweep) areaKey(b *Bench, p arch.PCUParams) exec.Key {
	var buf [320]byte
	k := append(buf[:0], "dse/pcu-area\x00"...)
	k = append(k, b.Name...)
	k = append(appendPCU(append(k, 0), p), 0)
	return exec.Key(append(k, s.chipKey...))
}

// appendPCU appends p to dst exactly as fmt's %+v renders it, without
// reflection. A persistent tier names each entry by its key's hash, so the
// rendering must never change.
func appendPCU(dst []byte, p arch.PCUParams) []byte {
	fields := [...]struct {
		label string
		v     int
	}{
		{"{Lanes:", p.Lanes}, {" Stages:", p.Stages}, {" Registers:", p.Registers},
		{" ScalarIns:", p.ScalarIns}, {" ScalarOuts:", p.ScalarOuts},
		{" VectorIns:", p.VectorIns}, {" VectorOuts:", p.VectorOuts},
	}
	for _, f := range fields {
		dst = append(dst, f.label...)
		dst = strconv.AppendInt(dst, int64(f.v), 10)
	}
	return append(dst, '}')
}

// benchArea is AnalyticalArea through the design-point cache (and, when
// attached, the persistent tier), keyed by areaKey. Infeasible points are
// cached like any other value, so a point that cannot map fails exactly
// once. It fails only when ctx ends while another job computes the point.
func (s *Sweep) benchArea(ctx context.Context, b *Bench, p arch.PCUParams) (float64, error) {
	v, err := exec.CachedJSON(ctx, s.Engine.Cache(), s.areaKey(b, p), func() (areaPoint, error) {
		s.mPoints.Inc()
		a := AnalyticalArea(b, p, s.Chip)
		if math.IsInf(a, 1) {
			s.mInfeasible.Inc()
			return areaPoint{Infeasible: true}, nil
		}
		return areaPoint{Area: a}, nil
	})
	if err != nil || v.Infeasible {
		return Infeasible, err
	}
	return v.Area, nil
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

// minimizeArea is minimizeAreaUncached through the cache: a whole descent
// result persists as one entry, so a resumed sweep skips not just the grid
// points but the descents themselves.
func (s *Sweep) minimizeArea(ctx context.Context, b *Bench, fixed map[string]int) (arch.PCUParams, float64, error) {
	k := exec.NewKey("dse/minimize", b.Name, canonFixed(fixed), s.chipKey)
	v, err := exec.CachedJSON(ctx, s.Engine.Cache(), k, func() (minPoint, error) {
		s.mPoints.Inc()
		p, area, err := s.minimizeAreaUncached(ctx, b, fixed)
		if err != nil {
			return minPoint{}, err
		}
		if math.IsInf(area, 1) {
			s.mInfeasible.Inc()
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

// minimizeAreaUncached performs coordinate descent over the free PCU
// parameters (those not in fixed) to find the minimum total PCU area for a
// benchmark — the paper's "sweep the remaining space to find the minimum
// possible PCU area" (Section 3.7). The descent is sequential (each step
// depends on the last) but every point it probes goes through the shared
// cache, and neighbouring grid points probe heavily overlapping sets.
func (s *Sweep) minimizeAreaUncached(ctx context.Context, b *Bench, fixed map[string]int) (arch.PCUParams, float64, error) {
	p := maxParams()
	for name, v := range fixed {
		pp, err := pcuParam(name)
		if err != nil {
			return p, Infeasible, fmt.Errorf("dse: %s: fixed grid: %w", b.Name, err)
		}
		*pp.Field(&p) = v
	}
	best, err := s.benchArea(ctx, b, p)
	if err != nil || math.IsInf(best, 1) {
		return p, Infeasible, err
	}
	order := []string{"stages", "registers", "vectorIns", "vectorOuts", "scalarIns", "scalarOuts"}
	for pass := 0; pass < 2; pass++ {
		for _, name := range order {
			if _, isFixed := fixed[name]; isFixed {
				continue
			}
			pp, err := pcuParam(name)
			if err != nil {
				return p, Infeasible, fmt.Errorf("dse: %s: %w", b.Name, err)
			}
			bestV := *pp.Field(&p)
			for _, v := range pp.Values {
				q := p
				*pp.Field(&q) = v
				a, err := s.benchArea(ctx, b, q)
				if err != nil {
					return p, Infeasible, err
				}
				if a < best {
					best, bestV = a, v
				}
			}
			*pp.Field(&p) = bestV
		}
	}
	return p, best, nil
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
// previous selections) with full internal parallelism; the shared cache
// makes the Table 3 pass far cheaper than six cold Figure 7 panels.
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
