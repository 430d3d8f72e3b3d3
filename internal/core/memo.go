package core

import (
	"context"
	"fmt"

	"plasticine/internal/metrics"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

// Trace once, time many. A benchmark's values depend on its program and
// inputs alone: the fabric parameters, fault plans and simulator options
// that profiles, resilience sweeps, recovery runs and tune candidates vary
// change timing, never results. So a session runs each benchmark's Build,
// interpreter and Check once, keeps the leaf-event log with Check's
// verdict, and times every evaluation of that benchmark by replaying the
// log against the mapping of its own Program().
//
// The session's memo is a second exec.Cache, keyed by benchmark name. It
// holds logs, Check verdicts and deterministic errors: no DRAM contents, no
// state and no program with bound data. It lives in memory for the
// session's life, never reaches the disk tier and never counts in
// CacheStats. Concurrent evaluations of one benchmark compute it once, and
// one that waits leaves when its own context ends. Evaluations the
// design-point cache already limits to one per key (RunBenchmark, Table7,
// Bench) pass no memo, so a cold Table 7 keeps no log.

// functional is one benchmark's functional result.
type functional struct {
	log *sim.Log
	// check is Check's verdict on the recorded run: nil, or the functional
	// mismatch every timing of the benchmark fails with.
	check error
}

// execute is the functional phase: Build, the interpreter run on its
// program, recorded as a log, and Check's verdict on its outputs, under
// build, interpret and check spans.
func execute(ctx context.Context, b workloads.Benchmark) (*functional, error) {
	_, span := metrics.Start(ctx, "build")
	p, err := b.Build()
	span.EndWith("", nil, err)
	if err != nil {
		return nil, err
	}
	_, span = metrics.Start(ctx, "interpret")
	log, st, err := sim.Execute(ctx, p)
	if err != nil {
		span.EndWith("", nil, err)
		return nil, err
	}
	span.EndWith(fmt.Sprintf("%d leaf events", log.Events()), nil, nil)
	_, span = metrics.Start(ctx, "check")
	err = b.Check(st)
	span.EndWith("", nil, err)
	return &functional{log: log, check: err}, nil
}
