package tune

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/dse"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
)

// search is the in-flight state of one Search call. All mutation happens on
// the coordinator goroutine; the parallel phase writes only index-addressed
// result slots.
type search struct {
	spec Spec
	env  Env

	benches map[string]*dse.Bench // pruning units per mix benchmark
	rng     rng
	gen     int

	sampled, pruned, dups, infeasibleSim int64

	records []evalRecord    // every simulated candidate, in evaluation order
	seen    map[string]bool // keys of evaluated candidates (dedup)
}

// evalRecord is one simulated candidate, in evaluation order. The ordered
// record list is the whole mutable search state: front, parent selection
// and dedup set are all recomputed from it.
type evalRecord struct {
	Key            string
	Params         arch.Params
	AreaMM2        float64
	PowerW         float64
	Infeasible     bool
	Cycles         map[string]int64
	WeightedCycles float64
	Gen            int
}

// searchMetrics bundles the tuner's side-channel collectors. With a nil
// registry every collector is nil and every record is a no-op.
type searchMetrics struct {
	genSeconds                                   *metrics.Histogram
	sampled, pruned, dups, evaluated, infeasible *metrics.Counter
}

func newSearchMetrics(r *metrics.Registry) searchMetrics {
	return searchMetrics{
		genSeconds: r.Histogram("plasticine_tune_generation_seconds",
			"Wall time per tuner generation (sample, prune, simulate, select)."),
		sampled: r.Counter("plasticine_tune_sampled_total",
			"Candidates drawn across all generations."),
		pruned: r.Counter("plasticine_tune_pruned_analytic_total",
			"Candidates rejected by the analytic screen before simulation."),
		dups: r.Counter("plasticine_tune_duplicates_total",
			"Sampled candidates already evaluated (deduplicated)."),
		evaluated: r.Counter("plasticine_tune_evaluated_total",
			"Candidates that reached simulation."),
		infeasible: r.Counter("plasticine_tune_infeasible_sim_total",
			"Simulated candidates the fabric could not run (infeasible points)."),
	}
}

// RegisterSearchMetrics pre-registers the tuner's metric families so a
// serving process's first /metricsz scrape shows them at zero instead of
// having them appear after the first search; Search's own registration
// is idempotent and attaches to the same collectors.
func RegisterSearchMetrics(r *metrics.Registry) { newSearchMetrics(r) }

// Search runs one budgeted Pareto-front search. Deterministic for a fixed
// spec at any engine worker count. When the engine has a disk tier, a rerun
// re-walks the same seeded trajectory with every completed evaluation
// served from the design-point cache, so a killed search resumes
// byte-identically.
func Search(ctx context.Context, spec Spec, env Env) (*Result, error) {
	if env.Evaluate == nil {
		return nil, errors.New("tune: Env.Evaluate is required")
	}
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	s := &search{
		spec: spec,
		env:  env,
		rng:  rng{state: uint64(spec.Seed)},
		seen: map[string]bool{},
	}
	if env.Bench != nil {
		s.benches = make(map[string]*dse.Bench, len(spec.Mix))
		for _, m := range spec.Mix {
			b, err := env.Bench(m.Bench)
			if err != nil {
				return nil, err
			}
			s.benches[m.Bench] = b
		}
	}

	// Side-channel instrumentation only: a nil registry hands out nil
	// collectors whose methods no-op, and nothing below feeds back into
	// the search, so the front stays byte-identical either way.
	sm := newSearchMetrics(env.Metrics)

	for len(s.records) < s.spec.Budget && s.gen < s.spec.MaxGenerations {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := struct{ sampled, pruned, dups, infeasible, evaluated int64 }{
			s.sampled, s.pruned, s.dups, s.infeasibleSim, int64(len(s.records)),
		}
		genStart := time.Now()
		if err := s.generation(ctx); err != nil {
			return nil, err
		}
		sm.genSeconds.ObserveSince(genStart)
		sm.sampled.Add(s.sampled - before.sampled)
		sm.pruned.Add(s.pruned - before.pruned)
		sm.dups.Add(s.dups - before.dups)
		sm.evaluated.Add(int64(len(s.records)) - before.evaluated)
		sm.infeasible.Add(s.infeasibleSim - before.infeasible)
		if s.env.OnGeneration != nil {
			s.env.OnGeneration(Generation{
				Gen:       s.gen,
				Sampled:   s.sampled,
				Pruned:    s.pruned,
				Evaluated: int64(len(s.records)),
				Budget:    s.spec.Budget,
				FrontSize: len(s.front()),
			})
		}
	}
	return s.result(), nil
}

// candidate is one analytically-admitted design point awaiting simulation.
type candidate struct {
	params arch.Params
	key    string
	area   float64
	power  float64
}

// generation runs one sample → prune → simulate → select round. Every RNG
// draw happens here, on the coordinator, in a fixed order; the budget
// counts evaluated candidates whether or not the cache already held them,
// so the trajectory — and therefore the front — is identical across worker
// counts, cache states and resumes.
func (s *search) generation(ctx context.Context) error {
	pop := s.spec.Population
	parents := s.parents()
	sampled := make([]arch.Params, 0, pop)
	for i := 0; i < pop; i++ {
		// Three quarters of the population descends from the current front;
		// the rest are random immigrants so the search never inbreeds. With
		// no feasible parents yet, everything is an immigrant.
		if len(parents) == 0 || i >= (3*pop+3)/4 {
			sampled = append(sampled, randomParams(&s.rng))
		} else {
			sampled = append(sampled, mutate(&s.rng, parents[i%len(parents)].Params))
		}
	}
	s.sampled += int64(len(sampled))

	// Analytic screen, cheapest test first: parameter validity, area
	// ceiling, power ceiling, then partition-and-fit per mix benchmark.
	// Everything here is closed-form or a partitioning pass — no simulation.
	genSeen := map[string]bool{}
	var survivors []candidate
	for _, p := range sampled {
		key := paramKey(p)
		if genSeen[key] || s.seen[key] {
			s.dups++
			continue
		}
		genSeen[key] = true
		c, ok := s.admit(p, key)
		if !ok {
			s.pruned++
			continue
		}
		survivors = append(survivors, c)
	}

	if err := s.evaluate(ctx, survivors); err != nil {
		return err
	}
	s.gen++
	return nil
}

// admit applies the analytical constraints to one candidate.
func (s *search) admit(p arch.Params, key string) (candidate, bool) {
	if p.Validate() != nil {
		return candidate{}, false
	}
	area := arch.Area(p).ChipTotal()
	if c := s.spec.Constraints.MaxAreaMM2; c > 0 && area > c {
		return candidate{}, false
	}
	power := arch.MaxPower(p)
	if c := s.spec.Constraints.MaxPowerW; c > 0 && power > c {
		return candidate{}, false
	}
	for _, m := range s.spec.Mix {
		if b := s.benches[m.Bench]; b != nil {
			if dse.CheckFeasible(b, p) != nil {
				return candidate{}, false
			}
		}
	}
	return candidate{params: p, key: key, area: area, power: power}, true
}

// evaluate fans the survivors' (candidate, benchmark) jobs across the
// engine and folds the outcomes into records in candidate order.
func (s *search) evaluate(ctx context.Context, survivors []candidate) error {
	if len(survivors) == 0 {
		return nil
	}
	mix := s.spec.Mix
	baseIdx := len(s.records)
	owned := func(ci int) bool {
		return s.spec.Shards <= 1 || (baseIdx+ci)%s.spec.Shards == s.spec.Shard
	}
	// Job order puts this shard's own candidates first, so its workers make
	// progress before blocking on another shard's results; the fold below
	// is by candidate index, so execution order never shows in the output.
	n := len(survivors) * len(mix)
	order := make([]int, 0, n)
	for pass := 0; pass < 2; pass++ {
		for ci := range survivors {
			if owned(ci) == (pass == 0) {
				for bi := range mix {
					order = append(order, ci*len(mix)+bi)
				}
			}
		}
	}
	outs := make([]EvalOutcome, n)
	err := s.env.Engine.Pool().Map(ctx, n, func(ctx context.Context, i int) error {
		j := order[i]
		ci, bi := j/len(mix), j%len(mix)
		out, err := s.benchEval(ctx, survivors[ci], mix[bi].Bench, owned(ci))
		if err != nil {
			return err
		}
		outs[j] = out
		return nil
	})
	if err != nil {
		return err
	}
	for ci, c := range survivors {
		rec := evalRecord{
			Key: c.key, Params: c.params,
			AreaMM2: c.area, PowerW: c.power, Gen: s.gen,
			Cycles: map[string]int64{},
		}
		for bi, m := range mix {
			out := outs[ci*len(mix)+bi]
			if out.Infeasible {
				rec.Infeasible = true
			}
			rec.Cycles[m.Bench] = out.Cycles
			rec.WeightedCycles += m.Weight * float64(out.Cycles)
		}
		if rec.Infeasible {
			// Placement/routing or simulation rejected the design even
			// though the analytical screen admitted it: it consumes budget
			// (the trajectory must not depend on the outcome) but never
			// joins the front.
			rec.Cycles, rec.WeightedCycles = nil, 0
			s.infeasibleSim++
		}
		s.records = append(s.records, rec)
		s.seen[c.key] = true
	}
	return nil
}

// benchEval resolves one (candidate, benchmark) outcome through the
// engine's cache and job policy. Out-of-shard work first polls the shared
// disk tier for the owning shard's result; past the patience window it is
// computed locally — the outcome is a pure function of (params, benchmark),
// so stolen work is byte-identical to waited-for work.
func (s *search) benchEval(ctx context.Context, c candidate, bench string, owned bool) (EvalOutcome, error) {
	k := exec.NewKey("tune/eval", bench, c.params.Key())
	if !owned {
		if out, ok := s.pollSibling(ctx, k); ok {
			return out, nil
		}
	}
	return exec.CachedJSON(s.env.Engine.Cache(), k, func() (EvalOutcome, error) {
		var out EvalOutcome
		err := s.env.Engine.RunJob(ctx, "tune "+bench+" "+c.key, func(ctx context.Context) error {
			var rerr error
			out, rerr = s.env.Evaluate(ctx, c.params, bench)
			return rerr
		})
		return out, err
	})
}

// pollSibling waits up to ShardWait for another shard to publish a result
// into the shared disk tier.
func (s *search) pollSibling(ctx context.Context, k exec.Key) (EvalOutcome, bool) {
	d := s.env.Engine.Cache().Disk()
	if d == nil {
		return EvalOutcome{}, false
	}
	deadline := time.Now().Add(s.spec.ShardWait)
	for {
		if data, ok := d.Get(k); ok {
			var out EvalOutcome
			if json.Unmarshal(data, &out) == nil {
				return out, true
			}
			return EvalOutcome{}, false // undecodable: recompute locally
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return EvalOutcome{}, false
		}
		select {
		case <-ctx.Done():
			return EvalOutcome{}, false
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// front returns the non-dominated feasible points over every evaluated
// record, sorted by (weighted cycles, area, power, key).
func (s *search) front() []Point {
	var pts []Point
	for _, r := range s.records {
		if r.Infeasible {
			continue
		}
		pts = append(pts, Point{
			Key: r.Key, Params: r.Params,
			AreaMM2: r.AreaMM2, PowerW: r.PowerW,
			WeightedCycles: r.WeightedCycles, Cycles: r.Cycles, Gen: r.Gen,
		})
	}
	front := make([]Point, 0, len(pts))
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && q.dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		a, b := front[i], front[j]
		if a.WeightedCycles != b.WeightedCycles {
			return a.WeightedCycles < b.WeightedCycles
		}
		if a.AreaMM2 != b.AreaMM2 {
			return a.AreaMM2 < b.AreaMM2
		}
		if a.PowerW != b.PowerW {
			return a.PowerW < b.PowerW
		}
		return a.Key < b.Key
	})
	return front
}

// parents is the successive-halving selection: the next generation descends
// from the current non-dominated set, capped at half the population (best
// weighted cycles first).
func (s *search) parents() []Point {
	front := s.front()
	if cap := max(2, s.spec.Population/2); len(front) > cap {
		front = front[:cap]
	}
	return front
}

// result assembles the final front and accounting.
func (s *search) result() *Result {
	return &Result{
		Front: s.front(),
		Stats: Stats{
			Generations:    s.gen,
			Sampled:        s.sampled,
			PrunedAnalytic: s.pruned,
			Duplicates:     s.dups,
			Evaluated:      int64(len(s.records)),
			InfeasibleSim:  s.infeasibleSim,
		},
	}
}
