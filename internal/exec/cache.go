package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Key is a canonical cache key: the parts of a design point's identity
// joined with NUL separators. The memory tier compares whole keys; the disk
// tier names its files by the key's fingerprint.
type Key string

// NewKey joins the canonical parts of a cache key. Parts are joined with a
// NUL separator so ("ab", "c") and ("a", "bc") stay distinct.
func NewKey(parts ...string) Key { return Key(strings.Join(parts, "\x00")) }

// String returns the full canonical key string.
func (k Key) String() string { return string(k) }

// CacheStats is a point-in-time cache counter snapshot. Misses equals the
// number of distinct keys ever computed, so for a fixed job set it is
// deterministic regardless of worker count or arrival order.
type CacheStats struct {
	Hits, Misses int64

	// Persistent-tier counters, zero when no disk tier is attached. DiskHits
	// are misses in memory that were served from disk without recomputing —
	// a resumed sweep shows DiskHits >= the design points completed before
	// the interruption.
	DiskHits    int64
	DiskWrites  int64
	Quarantined int64
	Evictions   int64
}

func (s CacheStats) String() string {
	total := s.Hits + s.Misses
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(s.Hits) / float64(total)
	}
	out := fmt.Sprintf("cache: %d hits, %d misses (%.0f%% hit rate)", s.Hits, s.Misses, pct)
	if s.DiskHits > 0 || s.DiskWrites > 0 {
		out += fmt.Sprintf("; disk: %d hits, %d writes", s.DiskHits, s.DiskWrites)
	}
	if s.Quarantined > 0 {
		out += fmt.Sprintf(", %d quarantined", s.Quarantined)
	}
	if s.Evictions > 0 {
		out += fmt.Sprintf(", %d evicted", s.Evictions)
	}
	return out
}

// Cache is a content-addressed in-memory result cache, safe for concurrent
// use, with an optional disk-backed persistent tier underneath (AttachDisk).
// The memory tier is one map from the full key to a typed entry, so a stored
// point costs its entry and its key. Each key computes at most once:
// concurrent requesters of an in-flight key wait until the first
// computation finishes, or until their own context ends, which fails their
// call alone. Deterministic errors are cached too (a no-fit, a failed
// check, a watchdog abort), so a failing point fails once, identically,
// for every requester. Two outcomes are never memoized, since they say
// more about the requester than about the key: a computation that panics,
// and one that fails with an error wrapping context.Canceled or
// context.DeadlineExceeded. Its entry is discarded, the outcome goes to its
// own requester, and waiting and later requesters recompute under their
// own contexts. A nil *Cache disables caching: CachedJSON simply calls
// compute.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]any // *entry[T] for the T its CachedJSON calls use
	disk    *DiskCache

	hits   atomic.Int64
	misses atomic.Int64
}

// entry is one key's slot in the memory tier. Its owner fills val and err,
// then finish sets finished (and abandoned, if it gave up) under the cache's
// lock and wakes the waiters; a requester reads val and err only after it
// saw finished under that lock or wake closed.
type entry[T any] struct {
	// wake is made by the first requester that waits on the unfinished
	// entry and closed when it finishes; nil while no one waits, so the
	// owner and a finished entry carry no channel.
	wake      chan struct{}
	finished  bool
	abandoned bool // the owner panicked or was canceled; the entry is gone
	val       T
	err       error
}

// NewCache returns an empty cache with no persistent tier.
func NewCache() *Cache {
	return &Cache{entries: map[Key]any{}}
}

// AttachDisk puts a persistent tier under the cache: lookups that miss in
// memory consult disk before computing, and successful results are written
// through. Attach before use; nil detaches.
// Nil-safe on a nil cache (no-op).
func (c *Cache) AttachDisk(d *DiskCache) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
}

// Disk returns the attached persistent tier, if any. Nil-safe.
func (c *Cache) Disk() *DiskCache {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// CachedJSON returns the cached value for k, computing and storing it on
// first use. A caller that finds k still being computed waits for it until
// ctx ends, and then returns an error wrapping ctx.Err(), which nothing
// memoizes; the computation goes on for its owner. When the cache has a
// disk tier, a memory miss consults it before computing, and successful
// values are written through as JSON, so with a disk tier attached T must
// JSON round-trip exactly (exported fields, no NaN/Inf — encode
// infeasibility as a flag); errors are never persisted. Every call for one
// key must use the same T. Nil-safe: a nil cache just runs compute.
func CachedJSON[T any](ctx context.Context, c *Cache, k Key, compute func() (T, error)) (T, error) {
	if c == nil {
		return compute()
	}
	first := true
	for {
		c.mu.Lock()
		slot, found := c.entries[k]
		if !found {
			slot = &entry[T]{}
			c.entries[k] = slot
		}
		e := slot.(*entry[T])
		var wake chan struct{}
		if found && !e.finished {
			if e.wake == nil {
				e.wake = make(chan struct{})
			}
			wake = e.wake
		}
		disk := c.disk
		c.mu.Unlock()
		if first {
			if found {
				c.hits.Add(1)
			} else {
				c.misses.Add(1)
			}
			first = false
		}
		if !found {
			return fill(c, k, e, disk, compute)
		}
		if wake != nil {
			select {
			case <-wake:
			case <-ctx.Done():
				var zero T
				return zero, fmt.Errorf("exec: waiting for another caller's computation: %w", ctx.Err())
			}
		}
		if e.abandoned {
			// The owner's computation panicked or was canceled and the
			// entry was dropped; start over and compute for ourselves.
			continue
		}
		return e.val, e.err
	}
}

// fill computes (or loads from disk) the value for an entry this goroutine
// owns, publishes it, and wakes waiters. If the computation panics or fails
// with its requester's cancellation, the entry is un-published first, so
// the outcome is never memoized: the owner gets the panic (recovered into a
// PanicError by Pool.Map) or the error, and everyone else recomputes.
func fill[T any](c *Cache, k Key, e *entry[T], disk *DiskCache, compute func() (T, error)) (val T, err error) {
	completed := false
	defer func() {
		if !completed {
			finish(c, k, e, true)
		}
	}()
	if disk != nil {
		if data, ok := disk.Get(k); ok {
			var v T
			if json.Unmarshal(data, &v) == nil {
				e.val = v
				completed = true
				finish(c, k, e, false)
				return v, nil
			}
			// Valid envelope, undecodable payload (e.g. the value type
			// changed without a version bump): recompute and overwrite.
		}
	}
	val, err = compute()
	if isCancellation(err) {
		return val, err
	}
	e.val, e.err = val, err
	completed = true
	finish(c, k, e, false)
	if disk != nil && err == nil {
		// Write-through, best-effort; errors are never persisted — a
		// failure observed in one process must not veto re-evaluation in
		// the next.
		if data, eerr := json.Marshal(val); eerr == nil {
			disk.Put(k, data)
		}
	}
	return val, err
}

// finish ends the owner's computation of k's entry e: it marks e finished,
// removes it from the memory tier when abandoned, and wakes its waiters.
func finish[T any](c *Cache, k Key, e *entry[T], abandoned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.finished, e.abandoned = true, abandoned
	if abandoned {
		delete(c.entries, k)
	}
	if e.wake != nil {
		close(e.wake)
		e.wake = nil
	}
}

// Stats snapshots the hit and miss counters, merged with the persistent
// tier's counters when one is attached. Nil-safe.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	if d := c.Disk(); d != nil {
		ds := d.Stats()
		s.DiskHits = ds.Hits
		s.DiskWrites = ds.Writes
		s.Quarantined = ds.Quarantined
		s.Evictions = ds.Evicted
	}
	return s
}

// Engine bundles the worker pool, the cache and the job policy — the handle
// the sweeps and core.Session share so every consumer draws from the same
// workers, never evaluates the same point twice, and runs every job under
// the same deadlines and retry budget. A nil *Engine is valid and means
// sequential, uncached, policy-free evaluation.
type Engine struct {
	pool    *Pool
	cache   *Cache
	policy  JobPolicy
	retries atomic.Int64

	// Failed-job accounting by retry class, for the metrics exporter.
	// Caller cancellations are excluded: a job abandoned because its
	// request went away is not a job failure.
	failTransient atomic.Int64
	failPermanent atomic.Int64
}

// NewEngine returns an engine with the given worker count (<= 0 means
// runtime.NumCPU()), a fresh cache, and the zero JobPolicy (no deadline, no
// retries).
func NewEngine(workers int) *Engine {
	return &Engine{pool: NewPool(workers), cache: NewCache()}
}

// Pool returns the engine's worker pool. Nil-safe (nil engine → nil pool,
// which runs sequentially).
func (e *Engine) Pool() *Pool {
	if e == nil {
		return nil
	}
	return e.pool
}

// Cache returns the engine's result cache. Nil-safe (nil engine → nil
// cache, which disables caching).
func (e *Engine) Cache() *Cache {
	if e == nil {
		return nil
	}
	return e.cache
}

// Workers reports the engine's concurrency. Nil-safe.
func (e *Engine) Workers() int { return e.Pool().Workers() }

// CacheStats snapshots the engine's cache counters. Nil-safe.
func (e *Engine) CacheStats() CacheStats { return e.Cache().Stats() }

// SetPolicy installs the per-job deadline/retry policy applied by RunJob.
// Set it before evaluation starts. Nil-safe (no-op).
func (e *Engine) SetPolicy(p JobPolicy) {
	if e == nil {
		return
	}
	e.policy = p
}

// AttachDisk puts a persistent tier under the engine's cache. Nil-safe.
func (e *Engine) AttachDisk(d *DiskCache) { e.Cache().AttachDisk(d) }

// RunJob executes one evaluation job under the engine's policy: per-attempt
// deadline, transient-error retries with backoff, retry accounting. label
// names the job in retry diagnostics. Nil-safe: a nil engine runs fn bare.
func (e *Engine) RunJob(ctx context.Context, label string, fn func(context.Context) error) error {
	if e == nil {
		return fn(ctx)
	}
	p := e.policy
	user := p.OnRetry
	p.OnRetry = func(attempt int, err error) {
		e.retries.Add(1)
		if user != nil {
			user(attempt, err)
		}
	}
	err := p.Run(ctx, label, fn)
	if err != nil && ctx.Err() == nil {
		if Transient(err) {
			e.failTransient.Add(1)
		} else {
			e.failPermanent.Add(1)
		}
	}
	return err
}

// FailedJobs reports jobs that ended in error after the policy's retry
// budget, split by Transient classification. Caller-canceled jobs are
// counted in neither. Nil-safe.
func (e *Engine) FailedJobs() (transient, permanent int64) {
	if e == nil {
		return 0, 0
	}
	return e.failTransient.Load(), e.failPermanent.Load()
}

// Retries reports how many job retries the policy has performed. Nil-safe.
func (e *Engine) Retries() int64 {
	if e == nil {
		return 0
	}
	return e.retries.Load()
}
