package core

// The serving layer drives ONE Session from many goroutines at once, mixing
// benchmark runs, profiles, explains and sweeps. This test is that usage
// pattern under -race: N goroutines hammer a shared Session with a mixed
// call schedule, and every result must be byte-identical to the same call
// made sequentially on a fresh session. Any data race (shared fault plan,
// stateful benchmark instance, sweep lazy-init, cache entry publication)
// either trips the race detector or diverges a result.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"plasticine/internal/compiler"
)

// benchJSONStripped serialises a BenchResult with host-measured wall time
// zeroed, so goroutine interleaving cannot legitimately change the bytes.
func benchJSONStripped(t *testing.T, r *BenchResult) []byte {
	t.Helper()
	c := *r
	c.SimWallSec = 0
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSessionConcurrentMixedUse(t *testing.T) {
	ctx := context.Background()

	// Sequential reference, one call each on a private session.
	ref := NewSession(WithWorkers(1))
	wantRun := map[string][]byte{}
	for _, name := range fastBenches {
		r, err := ref.RunBenchmark(ctx, mustBench(t, name))
		if err != nil {
			t.Fatalf("reference run %s: %v", name, err)
		}
		wantRun[name] = benchJSONStripped(t, r)
	}
	refProfile, err := ref.Profile(ctx, mustBench(t, "InnerProduct"))
	if err != nil {
		t.Fatal(err)
	}
	wantCounters, err := refProfile.CountersJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Strip the pass trace before comparing explanations: it records host
	// wall times, which legitimately differ between calls.
	explainJSON := func(ex *compiler.Explanation) []byte {
		c := *ex
		c.Passes = nil
		data, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	refExplain, err := ref.Explain(ctx, mustBench(t, "TPCHQ6"))
	if err != nil {
		t.Fatal(err)
	}
	wantExplain := explainJSON(refExplain)
	refPanel, err := ref.Figure7(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	wantPanel := refPanel.Format()

	// One shared session, every call kind in flight at once, each kind
	// repeated so cache hits and misses both happen concurrently.
	sess := NewSession(WithWorkers(4))
	type task func() error
	var tasks []task
	for round := 0; round < 2; round++ {
		for _, name := range fastBenches {
			name := name
			tasks = append(tasks, func() error {
				r, err := sess.RunBenchmark(ctx, mustBench(t, name))
				if err != nil {
					return fmt.Errorf("run %s: %w", name, err)
				}
				if got := benchJSONStripped(t, r); !bytes.Equal(got, wantRun[name]) {
					return fmt.Errorf("run %s diverged under concurrency:\nwant %s\ngot  %s", name, wantRun[name], got)
				}
				return nil
			})
		}
		tasks = append(tasks, func() error {
			p, err := sess.Profile(ctx, mustBench(t, "InnerProduct"))
			if err != nil {
				return fmt.Errorf("profile: %w", err)
			}
			got, err := p.CountersJSON()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, wantCounters) {
				return fmt.Errorf("profile counters diverged under concurrency")
			}
			return nil
		})
		tasks = append(tasks, func() error {
			ex, err := sess.Explain(ctx, mustBench(t, "TPCHQ6"))
			if err != nil {
				return fmt.Errorf("explain: %w", err)
			}
			if !bytes.Equal(explainJSON(ex), wantExplain) {
				return fmt.Errorf("explain diverged under concurrency")
			}
			return nil
		})
		tasks = append(tasks, func() error {
			p, err := sess.Figure7(ctx, "f")
			if err != nil {
				return fmt.Errorf("fig7: %w", err)
			}
			if p.Format() != wantPanel {
				return fmt.Errorf("figure 7 panel diverged under concurrency")
			}
			return nil
		})
	}

	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, fn := range tasks {
		wg.Add(1)
		go func(i int, fn task) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	// The shared cache deduped the repeated rounds: the three benchmarks
	// plus the sweep's design points were each computed exactly once.
	if s := sess.CacheStats(); s.Hits == 0 {
		t.Errorf("concurrent mixed use produced no cache hits: %+v", s)
	}
}

func TestSessionCloseIdempotent(t *testing.T) {
	sess := NewSession()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sess.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := sess.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
}
