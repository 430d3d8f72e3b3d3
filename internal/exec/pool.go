// Package exec is the parallel evaluation engine: a fixed worker pool that
// fans independent compile→simulate→profile jobs across cores, plus a
// content-addressed cache (with an optional disk-backed persistent tier) so
// identical design points are never evaluated twice. The paper's experiments
// are embarrassingly parallel — thirteen Table 4 benchmarks and thousands of
// Figure 7 / Table 3 design points — and every consumer (the DSE sweeps, the
// bench suite, the resilience sweep, core.Session) draws from the same pool
// and cache.
//
// Determinism contract: a job writes only into its own index-addressed slot,
// reads only immutable shared inputs, and seeds any randomness from its own
// key. Under that contract the merged output is byte-identical for any
// worker count, which the determinism tests in core and dse enforce.
//
// Robustness contract: a job that panics never crashes the process — the
// panic is recovered into a typed PanicError, siblings are canceled, and the
// cache never memoizes the panicked computation. See JobPolicy for per-job
// deadlines and transient-error retries.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from one job: which job index blew up,
// the recovered value, and the goroutine stack at the point of the panic.
// Pool.Map surfaces it like any other job failure (lowest index wins), so a
// panicking design point is reported deterministically while the process
// keeps running.
type PanicError struct {
	Index int    // index of the job that panicked
	Value any    // the value passed to panic()
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// isCancellation reports whether err is purely a reaction to a dying
// context. Both sentinels count: a parent deadline propagates
// context.DeadlineExceeded into sibling jobs exactly the way a cancel
// propagates context.Canceled, and surfacing either as a job failure would
// make Map's error depend on which sibling observed the dying context first.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// call runs one job with panic isolation: a panic inside fn becomes a typed
// *PanicError naming the job index instead of unwinding the process.
func call(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Pool is a fixed-size worker pool. The zero value and a nil *Pool both run
// jobs sequentially on the calling goroutine.
type Pool struct {
	workers int

	// running counts jobs currently executing inside Map, across every
	// concurrent Map call sharing this pool. It is introspection for
	// occupancy-aware callers (the serving layer's load-shedding watermark
	// and /statsz), not admission control: Map never blocks on it.
	running atomic.Int64
}

// NewPool returns a pool with the given number of workers; n <= 0 means
// runtime.NumCPU().
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Pool{workers: n}
}

// Workers reports the pool's concurrency. Nil-safe (a nil pool has 1).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Running reports how many jobs are executing right now across all Map
// calls sharing this pool — a point-in-time occupancy reading for load
// shedding and stats endpoints. Nil-safe (a nil pool reports 0).
func (p *Pool) Running() int {
	if p == nil {
		return 0
	}
	return int(p.running.Load())
}

// track wraps one job execution in the occupancy counter.
func (p *Pool) track(ctx context.Context, i int, fn func(context.Context, int) error) error {
	if p != nil {
		p.running.Add(1)
		defer p.running.Add(-1)
	}
	return call(ctx, i, fn)
}

// Map runs fn(ctx, i) for every i in [0, n), spread across the pool's
// workers. Jobs must be independent: each writes only its own slot of a
// caller-allocated result slice, so the merged result is identical for any
// worker count.
//
// The first real (non-cancellation) failure cancels the derived context,
// so unstarted jobs never start and in-flight jobs that watch their
// context stop early. Jobs are claimed in index order and a claimed job
// always runs, so the returned error is the failure with the lowest job
// index — the same error a sequential run would return — unless a job
// below it watches its context and is cut short before reaching its own
// failure. Cancellation errors from sibling jobs reacting to a context
// that was already dying (because a sibling failed, or because the parent
// ctx was canceled or hit its deadline) are never reported as failures; if
// the parent context died, Map returns the parent's own error. A panicking
// job is recovered into a *PanicError and treated as a real failure.
func (p *Pool) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := p.track(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	// secondary marks errors that are mere reactions to a context that was
	// already dying when the job observed it; they never mask a root cause
	// and are never surfaced as the failure themselves.
	secondary := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Check before claiming, never after: a claimed index always
			// runs, so no index below a failure is skipped.
			for jobCtx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := p.track(jobCtx, i, fn); err != nil {
					errs[i] = err
					if isCancellation(err) && jobCtx.Err() != nil {
						secondary[i] = true
					} else {
						cancel() // stop the fleet on the first real failure
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !secondary[i] {
			return err
		}
	}
	return ctx.Err()
}
