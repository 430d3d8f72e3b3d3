package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"plasticine/internal/dhdl"
	"plasticine/internal/metrics"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

// Trace once, time many. A benchmark's values depend on its program and
// inputs alone: the fabric parameters, fault plans and simulator options
// that profiles, resilience sweeps, recovery runs and tune candidates vary
// change timing, never results. So a session runs each benchmark's Build,
// interpreter and Check once, keeps the leaf-event log with Check's
// verdict, and times every later evaluation of that benchmark by replaying
// the log against a fresh Program()'s mapping.
//
// The memo holds logs, Check verdicts and deterministic errors: no DRAM
// contents, no state and no program with bound data. It lives in memory for the session's life, never reaches the disk
// tier and never counts in CacheStats. Evaluations the design-point cache
// already limits to one per key (RunBenchmark, Table7, Bench) replay an
// entry that is there but never add one, so a cold Table 7 keeps no log.

// functional is one benchmark's memoized functional result.
type functional struct {
	log *sim.Log
	// check is Check's verdict on the recorded run: nil, or the functional
	// mismatch every timing of the benchmark fails with.
	check error
}

// memoEntry is one benchmark's slot. Its fields are written once, by the
// caller that claimed it, before done closes.
type memoEntry struct {
	done chan struct{}
	// abandoned marks a claim given up without an outcome (the claimant's
	// design point did not compile, its context ended, or it panicked);
	// waiters then claim the slot afresh.
	abandoned bool
	// Exactly one of fn, buildErr and execErr is set on a kept entry: the
	// result, or the deterministic failure of Build or of the interpreter,
	// which every later evaluation returns in the same place.
	fn       *functional
	buildErr error
	execErr  error
}

// funcMemo is the session's functional memo, keyed by benchmark name (the
// key the design-point cache uses).
type funcMemo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

// peek returns name's kept entry, or nil while there is none or its first
// computation is still running.
func (fm *funcMemo) peek(name string) *memoEntry {
	fm.mu.Lock()
	e := fm.m[name]
	fm.mu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.done:
		return e
	default:
		return nil
	}
}

// claim returns name's kept entry, waiting while another caller computes
// it. When there is none, the caller gets a fresh entry and owns it
// (owner): it must then publish its outcome (close done) or abandon it. A wait ends early, with an
// error wrapping ctx.Err(), when ctx does.
func (fm *funcMemo) claim(ctx context.Context, name string) (e *memoEntry, owner bool, err error) {
	for {
		fm.mu.Lock()
		e = fm.m[name]
		if e == nil {
			if fm.m == nil {
				fm.m = map[string]*memoEntry{}
			}
			e = &memoEntry{done: make(chan struct{})}
			fm.m[name] = e
			fm.mu.Unlock()
			return e, true, nil
		}
		fm.mu.Unlock()
		select {
		case <-e.done:
			if !e.abandoned {
				return e, false, nil
			}
		case <-ctx.Done():
			return nil, false, fmt.Errorf("waiting for the functional result: %w", ctx.Err())
		}
	}
}

// abandon gives up an owned entry without an outcome: the slot empties and
// its waiters claim it afresh.
func (fm *funcMemo) abandon(name string, e *memoEntry) {
	fm.mu.Lock()
	if fm.m[name] == e {
		delete(fm.m, name)
	}
	fm.mu.Unlock()
	e.abandoned = true
	close(e.done)
}

// memoLookup is one evaluation's use of the memo: the kept entry it replays
// (hit), or the slot it claimed and must fill (claimed), or neither, when
// it has no memo or only reads one that holds nothing yet.
type memoLookup struct {
	memo    *funcMemo
	name    string
	hit     *memoEntry
	claimed *memoEntry
}

// lookup finds name's functional result for one evaluation. With keep, a
// miss claims the slot, waiting while another caller computes it; without,
// only a kept entry is used. A nil memo finds nothing. A hit records a
// "memo" span over the lookup, any wait included.
func (fm *funcMemo) lookup(ctx context.Context, name string, keep bool) (*memoLookup, error) {
	lk := &memoLookup{memo: fm, name: name}
	if fm == nil {
		return lk, nil
	}
	t0 := time.Now()
	if !keep {
		lk.hit = fm.peek(name)
	} else {
		e, owner, err := fm.claim(ctx, name)
		if err != nil {
			return nil, err
		}
		if owner {
			lk.claimed = e
		} else {
			lk.hit = e
		}
	}
	if lk.hit != nil {
		metrics.Add(ctx, "memo", t0)
	}
	return lk, nil
}

// release abandons a claim the evaluation never filled: its design point
// did not compile, its context ended, or it panicked.
func (lk *memoLookup) release() {
	if lk.claimed != nil {
		lk.memo.abandon(lk.name, lk.claimed)
		lk.claimed = nil
	}
}

// publish keeps the claimed entry, whose outcome the caller has set.
func (lk *memoLookup) publish() {
	close(lk.claimed.done)
	lk.claimed = nil
}

// program returns the program the evaluation compiles, under a "build"
// span: on a hit Program() alone, since the functional result is kept;
// otherwise Build(), whose program the functional phase runs. A hit on a
// failed Build, or a claimed one, fails with Build's error.
func (lk *memoLookup) program(ctx context.Context, b workloads.Benchmark) (*dhdl.Program, error) {
	if lk.hit != nil && lk.hit.buildErr != nil {
		return nil, lk.hit.buildErr
	}
	_, span := metrics.Start(ctx, "build")
	var p *dhdl.Program
	var err error
	if lk.hit != nil {
		p, err = b.Program()
	} else {
		p, err = b.Build()
	}
	span.EndWith("", nil, err)
	if err != nil && lk.claimed != nil {
		lk.claimed.buildErr = err
		lk.publish()
	}
	return p, err
}

// functional returns the evaluation's functional result: the kept one on
// a hit, otherwise the functional phase on p, Build's program, kept when
// the evaluation claimed the slot. An interpreter failure is kept too,
// unless the run's context had ended, which may be why it failed.
func (lk *memoLookup) functional(ctx context.Context, b workloads.Benchmark, p *dhdl.Program) (*functional, error) {
	if lk.hit != nil {
		return lk.hit.fn, lk.hit.execErr
	}
	fn, err := execute(ctx, b, p)
	if lk.claimed != nil && (err == nil || ctx.Err() == nil) {
		lk.claimed.fn, lk.claimed.execErr = fn, err
		lk.publish()
	}
	return fn, err
}

// execute is the functional phase on a bound program: the interpreter run,
// recorded as a log, and Check's verdict on its outputs.
func execute(ctx context.Context, b workloads.Benchmark, p *dhdl.Program) (*functional, error) {
	_, span := metrics.Start(ctx, "interpret")
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
