// Package tune is the Pareto-front auto-tuner over the Plasticine design
// space: "give me the best chip for this workload mix under 100 mm²" as one
// call. It answers by searching millions of arch.Params candidates — PCU
// datapath shape, PMU bank size, chip grid and DRAM channels — under a
// simulated-candidate budget, minimising three objectives at once: weighted
// cycles over the mix (from simulation), chip area and worst-case power
// (from the analytical models).
//
// The search is a generation-based evolutionary loop with successive
// halving: each generation samples a population (mutations of the current
// front plus random immigrants), rejects candidates analytically —
// parameter validation, area/power ceilings, then per-benchmark
// partition-and-fit feasibility via dse.CheckFeasible — and only simulates
// the survivors, typically well under half the sample. Selection keeps the
// non-dominated half as the next generation's parents.
//
// Determinism: every random draw happens on the coordinator in a fixed
// order from a seeded RNG, evaluation results are a pure
// function of (params, benchmark), and fronts are merged and sorted by
// canonical keys — so a fixed seed yields a byte-identical front at any
// worker count.
//
// Durability: when the engine has a disk tier, every evaluation persists
// through the design-point cache. Since the trajectory is a function of
// the spec alone, a SIGKILL'd search rerun against the same cache directory
// re-walks it with completed evaluations served from disk and resumes
// byte-identically, and N cooperating processes can split one search via
// Spec.Shard/Shards over a shared directory.
package tune

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/dse"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
	"plasticine/internal/stats"
)

// MixEntry weights one benchmark in the workload mix the tuner optimises
// for. Weights are relative; zero means 1.
type MixEntry struct {
	Bench  string  `json:"bench"`
	Weight float64 `json:"weight"`
}

// ParseMix parses a command-line mix like "GEMM:2,FFT:1" (weight defaults
// to 1 when omitted: "GEMM,FFT").
func ParseMix(s string) ([]MixEntry, error) {
	var out []MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawW, hasW := strings.Cut(part, ":")
		e := MixEntry{Bench: strings.TrimSpace(name), Weight: 1}
		if hasW {
			w, err := strconv.ParseFloat(strings.TrimSpace(rawW), 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("tune: bad mix weight in %q: want name:positive-number", part)
			}
			e.Weight = w
		}
		if e.Bench == "" {
			return nil, fmt.Errorf("tune: empty benchmark name in mix %q", s)
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tune: empty workload mix %q", s)
	}
	return out, nil
}

// Constraints are hard ceilings a candidate must satisfy analytically
// before it is ever simulated. Zero means unconstrained.
type Constraints struct {
	MaxAreaMM2 float64 `json:"max_area_mm2,omitempty"`
	MaxPowerW  float64 `json:"max_power_w,omitempty"`
}

// Spec describes one search. Mix, Constraints, Population and Seed
// determine the search trajectory; Budget, MaxGenerations, Shard/Shards and
// ShardWait are stop/execution parameters a rerun may change while still
// reusing every cached evaluation of the shared prefix.
type Spec struct {
	Mix         []MixEntry  `json:"mix"`
	Constraints Constraints `json:"constraints"`

	// Budget is the simulated-candidate budget. It counts evaluated
	// candidates regardless of cache hits, so the trajectory is independent
	// of what is already cached; the search stops at the first generation
	// boundary at or past it.
	Budget int `json:"budget"`

	// Population is the number of candidates sampled per generation.
	Population int `json:"population"`

	// MaxGenerations bounds the loop when pruning starves the budget
	// (0 = derived from Budget/Population).
	MaxGenerations int `json:"max_generations,omitempty"`

	Seed int64 `json:"seed"`

	// Shard/Shards split one search across cooperating processes sharing a
	// cache directory: shard i simulates candidates with evaluation index
	// ≡ i (mod Shards) and polls the shared disk tier for the rest, falling
	// back to local evaluation after ShardWait (work stealing keeps the
	// result deterministic either way). Excluded from the search identity.
	Shard  int `json:"-"`
	Shards int `json:"-"`

	ShardWait time.Duration `json:"-"`
}

// normalize canonicalises the spec in place: the mix is merged by benchmark
// and sorted by name, and zero sizes are filled with defaults, so equal
// searches walk the same trajectory and weighted sums fold in a fixed
// order. Negative sizes are errors, not requests for the default.
func (s *Spec) normalize() error {
	if len(s.Mix) == 0 {
		return errors.New("tune: spec has an empty workload mix")
	}
	merged := map[string]float64{}
	for _, m := range s.Mix {
		if m.Bench == "" {
			return errors.New("tune: mix entry with an empty benchmark name")
		}
		w := m.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return fmt.Errorf("tune: negative weight %g for %s", w, m.Bench)
		}
		merged[m.Bench] += w
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	// Fresh slice: the caller's Mix backing array must stay untouched.
	mix := make([]MixEntry, 0, len(names))
	for _, n := range names {
		mix = append(mix, MixEntry{Bench: n, Weight: merged[n]})
	}
	s.Mix = mix
	if s.Constraints.MaxAreaMM2 < 0 || s.Constraints.MaxPowerW < 0 {
		return fmt.Errorf("tune: negative constraint (area %g mm², power %g W)",
			s.Constraints.MaxAreaMM2, s.Constraints.MaxPowerW)
	}
	switch {
	case s.Budget < 0:
		return fmt.Errorf("tune: negative budget %d", s.Budget)
	case s.Population < 0:
		return fmt.Errorf("tune: negative population %d", s.Population)
	case s.MaxGenerations < 0:
		return fmt.Errorf("tune: negative max generations %d", s.MaxGenerations)
	}
	if s.Budget == 0 {
		s.Budget = 48
	}
	if s.Population == 0 {
		s.Population = 24
	}
	if s.MaxGenerations == 0 {
		s.MaxGenerations = 16 + 8*((s.Budget+s.Population-1)/s.Population)
	}
	if s.Shards <= 0 {
		s.Shards, s.Shard = 1, 0
	}
	if s.Shard < 0 || s.Shard >= s.Shards {
		return fmt.Errorf("tune: shard %d of %d out of range", s.Shard, s.Shards)
	}
	if s.ShardWait <= 0 {
		s.ShardWait = 15 * time.Second
	}
	return nil
}

// EvalOutcome is one (candidate, benchmark) simulation result. Designs the
// compiler cannot place or route — or that deadlock under simulation — are
// infeasible points, not search-aborting errors; the flag keeps the
// persisted form JSON-safe (no ±Inf).
type EvalOutcome struct {
	Cycles     int64 `json:"cycles,omitempty"`
	Infeasible bool  `json:"infeasible,omitempty"`
}

// Point is one evaluated design point on (or behind) the Pareto front.
type Point struct {
	Key            string           `json:"key"`
	Params         arch.Params      `json:"params"`
	AreaMM2        float64          `json:"area_mm2"`
	PowerW         float64          `json:"power_w"`
	WeightedCycles float64          `json:"weighted_cycles"`
	Cycles         map[string]int64 `json:"cycles"`
	Gen            int              `json:"gen"`
}

// dominates reports whether p is at least as good as q on every objective
// and strictly better on at least one (all three minimised).
func (p Point) dominates(q Point) bool {
	if p.WeightedCycles > q.WeightedCycles || p.AreaMM2 > q.AreaMM2 || p.PowerW > q.PowerW {
		return false
	}
	return p.WeightedCycles < q.WeightedCycles || p.AreaMM2 < q.AreaMM2 || p.PowerW < q.PowerW
}

// Stats accounts for one search.
type Stats struct {
	Generations    int   `json:"generations"`
	Sampled        int64 `json:"sampled"`
	PrunedAnalytic int64 `json:"pruned_analytic"`
	Duplicates     int64 `json:"duplicates"`
	Evaluated      int64 `json:"evaluated"`
	InfeasibleSim  int64 `json:"infeasible_sim"`
}

// Result is the search outcome: the non-dominated front over every
// evaluated candidate, sorted by (weighted cycles, area, power, key).
type Result struct {
	Front []Point `json:"front"`
	Stats Stats   `json:"stats"`
}

// Generation is the per-generation progress event (cumulative counters).
type Generation struct {
	Gen       int   `json:"gen"`
	Sampled   int64 `json:"sampled"`
	Pruned    int64 `json:"pruned"`
	Evaluated int64 `json:"evaluated"`
	Budget    int   `json:"budget"`
	FrontSize int   `json:"front_size"`
}

// Env wires the tuner to its host. The tuner owns the search; the host
// owns how a candidate is actually evaluated (core.Session supplies a
// compile+simulate closure) — this keeps the package free of an import
// cycle with core while still riding the shared engine.
type Env struct {
	// Engine supplies the worker pool, the design-point cache (memory +
	// optional disk tier, which makes a search resumable) and the job
	// policy. A nil engine evaluates sequentially and uncached.
	Engine *exec.Engine

	// Bench loads a benchmark's virtual units for analytical pruning
	// (dse.LoadBench in production). Nil disables the per-benchmark
	// feasibility screen; validation and area/power ceilings still apply.
	Bench func(name string) (*dse.Bench, error)

	// Evaluate is the raw, uncached compile+simulate for one candidate.
	// The tuner wraps it with the engine's cache and job policy itself.
	Evaluate func(ctx context.Context, p arch.Params, bench string) (EvalOutcome, error)

	// OnGeneration, when set, observes each completed generation.
	OnGeneration func(Generation)

	// Metrics, when set, receives side-channel instrumentation:
	// generation wall time and prune-stage counters. Never feeds back
	// into the search — results stay byte-identical with or without it.
	Metrics *metrics.Registry
}

// FormatFront renders the Pareto front as a text table.
func FormatFront(r *Result) string {
	t := stats.New(
		fmt.Sprintf("Pareto front: %d point(s) of %d evaluated", len(r.Front), r.Stats.Evaluated),
		"Chip", "DDR", "PCU s/r/si/so/vi/vo", "PMU KB", "Area mm^2", "Power W", "Wgt cycles")
	for _, p := range r.Front {
		t.Add(
			fmt.Sprintf("%dx%d", p.Params.Chip.Cols, p.Params.Chip.Rows),
			fmt.Sprint(p.Params.Chip.DDRChannels),
			fmt.Sprintf("%d/%d/%d/%d/%d/%d", p.Params.PCU.Stages, p.Params.PCU.Registers,
				p.Params.PCU.ScalarIns, p.Params.PCU.ScalarOuts,
				p.Params.PCU.VectorIns, p.Params.PCU.VectorOuts),
			fmt.Sprint(p.Params.PMU.BankKB),
			fmt.Sprintf("%.1f", p.AreaMM2),
			fmt.Sprintf("%.1f", p.PowerW),
			fmt.Sprintf("%.0f", p.WeightedCycles))
	}
	return t.String()
}

// resultDoc is the plasticine-tune/v1 JSON document.
type resultDoc struct {
	Schema      string      `json:"schema"`
	Mix         []MixEntry  `json:"mix"`
	Constraints Constraints `json:"constraints"`
	Budget      int         `json:"budget"`
	Population  int         `json:"population"`
	Seed        int64       `json:"seed"`
	Front       []Point     `json:"front"`
	Stats       Stats       `json:"stats"`
}

// ResultDoc assembles the plasticine-tune/v1 document as a value, for
// callers that embed it in a larger encoding (the /v1/tune stream's result
// event).
func ResultDoc(spec Spec, r *Result) (any, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	return resultDoc{
		Schema:      "plasticine-tune/v1",
		Mix:         spec.Mix,
		Constraints: spec.Constraints,
		Budget:      spec.Budget,
		Population:  spec.Population,
		Seed:        spec.Seed,
		Front:       r.Front,
		Stats:       r.Stats,
	}, nil
}

// ResultJSON emits the plasticine-tune/v1 document (schema in
// EXPERIMENTS.md). Deterministic: a resumed run emits the same bytes as an
// uninterrupted one.
func ResultJSON(spec Spec, r *Result) ([]byte, error) {
	doc, err := ResultDoc(spec, r)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(doc, "", "  ")
}
