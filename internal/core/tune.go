package core

// Session.Tune is the facade over internal/tune: the session supplies the
// evaluation environment — the shared engine (pool, design-point cache,
// disk tier, job policy) plus the raw compile+simulate closure — and the
// tuner owns the search. Candidate evaluations are cached under their own
// "tune/eval" keys (one per candidate × benchmark), so tune runs share
// results with each other across processes and tenants, but not with the
// session's fixed-architecture benchmark cache.

import (
	"context"
	"errors"

	"plasticine/internal/arch"
	"plasticine/internal/dse"
	"plasticine/internal/sim"
	"plasticine/internal/tune"
	"plasticine/internal/workloads"
)

// Tune runs the Pareto-front auto-tuner over the architecture design space
// for the spec's workload mix. onGen (nil ok) observes each completed
// generation. Deterministic for a fixed spec at any worker count; with a
// disk cache attached, a killed run rerun against the same directory
// re-walks its trajectory from the cached evaluations and finishes
// byte-identically.
func (s *Session) Tune(ctx context.Context, spec tune.Spec, onGen func(tune.Generation)) (*tune.Result, error) {
	return tune.Search(ctx, spec, tune.Env{
		Engine:       s.engine,
		Bench:        dse.LoadBench,
		Evaluate:     s.tuneEvaluate,
		OnGeneration: onGen,
		Metrics:      s.metricsReg.Load(),
	})
}

// tuneEvaluate is the raw evaluation behind one (candidate, benchmark)
// point: compile and simulate on a pristine fabric with default simulator
// options — tuning measures the design, not a fault scenario. Designs the
// compiler cannot place or route, or that wedge the simulated fabric
// (non-transient watchdog aborts: stall, deadlock), are infeasible points
// the search records and moves past; only environmental errors (context
// death, simulator bugs) abort the search.
func (s *Session) tuneEvaluate(ctx context.Context, p arch.Params, name string) (tune.EvalOutcome, error) {
	b, err := workloads.ByName(name)
	if err != nil {
		return tune.EvalOutcome{}, err
	}
	r, err := runBenchmark(ctx, p, b, nil, sim.Options{}, s.memo)
	if err != nil {
		if tuneInfeasible(err) {
			return tune.EvalOutcome{Infeasible: true}, nil
		}
		return tune.EvalOutcome{}, err
	}
	return tune.EvalOutcome{Cycles: r.Cycles}, nil
}

// tuneInfeasible classifies an evaluation failure as a property of the
// design point rather than of the run: compile-time no-fit (insufficient
// resources, unroutable) and permanent watchdog aborts both mean "this
// candidate does not work", not "stop searching".
func tuneInfeasible(err error) bool {
	if isInfeasible(err) {
		return true
	}
	var we *sim.WatchdogError
	return errors.As(err, &we) && !we.Transient()
}
