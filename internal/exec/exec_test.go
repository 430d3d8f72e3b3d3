package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolMapCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		n := 57
		seen := make([]int32, n)
		err := NewPool(workers).Map(context.Background(), n, func(_ context.Context, i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want exactly once", workers, i, c)
			}
		}
	}
}

func TestPoolMapDeterministicResults(t *testing.T) {
	// The same job set must produce identical merged output at any width.
	run := func(workers int) []int {
		out := make([]int, 40)
		if err := NewPool(workers).Map(context.Background(), len(out), func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("slot %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

func TestPoolMapReturnsLowestIndexError(t *testing.T) {
	// Jobs 11 and 23 fail; whichever finishes first must not matter — the
	// reported error is the lowest-index one, as in a sequential run.
	errA := errors.New("boom 11")
	errB := errors.New("boom 23")
	for trial := 0; trial < 20; trial++ {
		err := NewPool(8).Map(context.Background(), 30, func(_ context.Context, i int) error {
			switch i {
			case 11:
				time.Sleep(2 * time.Millisecond) // let 23 fail first sometimes
				return errA
			case 23:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: got %v, want lowest-index error %v", trial, err, errA)
		}
	}
}

func TestPoolMapErrorCancelsSiblings(t *testing.T) {
	var canceled atomic.Int32
	started := make(chan struct{}, 64)
	err := NewPool(4).Map(context.Background(), 64, func(ctx context.Context, i int) error {
		if i == 0 {
			// Fail only once siblings are inside their select, so the
			// cancellation is observable.
			for j := 0; j < 2; j++ {
				<-started
			}
			return errors.New("first job fails")
		}
		started <- struct{}{}
		select {
		case <-ctx.Done():
			canceled.Add(1)
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
			return nil
		}
	})
	if err == nil || err.Error() != "first job fails" {
		t.Fatalf("got %v, want the real failure, not a cancellation", err)
	}
	if canceled.Load() == 0 {
		t.Error("no sibling observed the cancellation")
	}
}

func TestPoolMapHonorsParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := NewPool(4).Map(ctx, 8, func(context.Context, int) error {
		t.Error("job ran under a canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestNilPoolRunsSequentially(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool has %d workers, want 1", p.Workers())
	}
	sum := 0
	if err := p.Map(context.Background(), 5, func(_ context.Context, i int) error {
		sum += i // no synchronisation needed: sequential by contract
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

func TestCacheHitMissCounting(t *testing.T) {
	c := NewCache()
	calls := 0
	get := func(k string) int {
		v, err := CachedJSON(c, NewKey("test", k), func() (int, error) {
			calls++
			return len(k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get("alpha") != 5 || get("beta") != 4 || get("alpha") != 5 || get("alpha") != 5 {
		t.Fatal("wrong cached values")
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	s := c.Stats()
	if s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses / 2 hits", s)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	calls := 0
	boom := errors.New("infeasible point")
	for i := 0; i < 3; i++ {
		_, err := CachedJSON(c, NewKey("err"), func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("iteration %d: got %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1 (errors are cached)", calls)
	}
}

func TestCacheFingerprintCollision(t *testing.T) {
	// Force two distinct keys onto the same 64-bit fingerprint. The cache
	// must keep both entries separate (matched by full key string), serve
	// the right value for each, and count the collision.
	c := NewCache()
	ka := Key{hash: 42, str: "point-a"}
	kb := Key{hash: 42, str: "point-b"}
	va, err := CachedJSON(c, ka, func() (string, error) { return "value-a", nil })
	if err != nil || va != "value-a" {
		t.Fatalf("ka: %q, %v", va, err)
	}
	vb, err := CachedJSON(c, kb, func() (string, error) { return "value-b", nil })
	if err != nil || vb != "value-b" {
		t.Fatalf("kb first use computed %q, %v — collision served the wrong entry?", vb, err)
	}
	// Re-reads hit the right entries.
	va, _ = CachedJSON(c, ka, func() (string, error) { return "WRONG", nil })
	vb, _ = CachedJSON(c, kb, func() (string, error) { return "WRONG", nil })
	if va != "value-a" || vb != "value-b" {
		t.Fatalf("collision re-read: got %q/%q, want value-a/value-b", va, vb)
	}
	s := c.Stats()
	if s.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", s.Collisions)
	}
	if s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses / 2 hits", s)
	}
}

func TestCacheKeySeparatorAmbiguity(t *testing.T) {
	// ("ab","c") and ("a","bc") must not alias.
	if NewKey("ab", "c") == NewKey("a", "bc") {
		t.Fatal("key parts alias across the separator")
	}
	if NewKey("x") != NewKey("x") {
		t.Fatal("equal parts must produce equal keys")
	}
}

func TestCacheConcurrentSingleCompute(t *testing.T) {
	// Many goroutines requesting the same key must compute once and all see
	// the same value; misses stays at the number of distinct keys.
	c := NewCache()
	var computes atomic.Int64
	const distinct = 7
	err := NewPool(16).Map(context.Background(), 200, func(_ context.Context, i int) error {
		k := i % distinct
		v, err := CachedJSON(c, NewKey("k", fmt.Sprint(k)), func() (int, error) {
			computes.Add(1)
			time.Sleep(time.Millisecond) // widen the in-flight window
			return k * 10, nil
		})
		if err != nil {
			return err
		}
		if v != k*10 {
			return fmt.Errorf("key %d: got %d", k, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != distinct {
		t.Fatalf("computed %d times, want %d", computes.Load(), distinct)
	}
	if s := c.Stats(); s.Misses != distinct {
		t.Fatalf("misses = %d, want %d (deterministic regardless of schedule)", s.Misses, distinct)
	}
}

func TestNilCacheAndEngine(t *testing.T) {
	var c *Cache
	v, err := CachedJSON(c, NewKey("x"), func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("nil cache: %d, %v", v, err)
	}
	var e *Engine
	if e.Workers() != 1 {
		t.Fatalf("nil engine workers = %d, want 1", e.Workers())
	}
	if s := e.CacheStats(); s != (CacheStats{}) {
		t.Fatalf("nil engine stats = %+v", s)
	}
	if err := e.Pool().Map(context.Background(), 1, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
