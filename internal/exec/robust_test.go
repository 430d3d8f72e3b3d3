package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- panic isolation -------------------------------------------------------

func TestMapRecoversPanicSequential(t *testing.T) {
	p := NewPool(1)
	err := p.Map(context.Background(), 4, func(_ context.Context, i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Map = %v, want *PanicError", err)
	}
	if pe.Index != 2 || pe.Value != "boom" {
		t.Fatalf("PanicError = {Index:%d Value:%v}, want {2 boom}", pe.Index, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError.Stack is empty")
	}
	if !strings.Contains(pe.Error(), "job 2 panicked") {
		t.Fatalf("Error() = %q does not name the job index", pe.Error())
	}
}

func TestMapRecoversPanicParallel(t *testing.T) {
	p := NewPool(8)
	err := p.Map(context.Background(), 64, func(_ context.Context, i int) error {
		if i == 17 {
			panic(fmt.Sprintf("job %d exploded", i))
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Map = %v, want *PanicError", err)
	}
	if pe.Index != 17 {
		t.Fatalf("PanicError.Index = %d, want 17", pe.Index)
	}
}

func TestMapPanicSurfacesLowestIndex(t *testing.T) {
	// Two jobs panic; the lowest index must win at any worker count.
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		var started sync.WaitGroup
		started.Add(2)
		err := p.Map(context.Background(), 2, func(_ context.Context, i int) error {
			if workers > 1 {
				// Hold both jobs at the brink so both definitely panic.
				started.Done()
				started.Wait()
			}
			panic(i)
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Map = %v, want *PanicError", workers, err)
		}
		if pe.Index != 0 {
			t.Fatalf("workers=%d: surfaced job %d, want 0", workers, pe.Index)
		}
	}
}

func TestMapPanicCancelsSiblings(t *testing.T) {
	p := NewPool(2)
	var canceled atomic.Int64
	siblingUp := make(chan struct{}, 32)
	err := p.Map(context.Background(), 32, func(ctx context.Context, i int) error {
		if i == 0 {
			<-siblingUp // panic only once a sibling is definitely in flight
			panic("die")
		}
		siblingUp <- struct{}{}
		select {
		case <-ctx.Done():
			canceled.Add(1)
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return fmt.Errorf("job %d never saw the cancel", i)
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Map = %v, want *PanicError", err)
	}
	if canceled.Load() == 0 {
		t.Fatal("no sibling observed the cancellation")
	}
}

// --- satellite regression: inherited DeadlineExceeded ----------------------

func TestMapInheritedDeadlineIsDeterministic(t *testing.T) {
	// A parent deadline that expires mid-Map propagates DeadlineExceeded
	// into every running job. Those are reactions, not failures: Map must
	// return the parent's own error, not an arbitrary sibling's, at any
	// worker count.
	for _, workers := range []int{2, 8} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		p := NewPool(workers)
		err := p.Map(ctx, 64, func(ctx context.Context, i int) error {
			<-ctx.Done()
			// Jobs report the dying context with varying decoration; none
			// of these must surface as the result.
			if i%2 == 0 {
				return ctx.Err()
			}
			return fmt.Errorf("job %d: %w", i, ctx.Err())
		})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: Map = %v, want DeadlineExceeded", workers, err)
		}
		// The parent's bare error, not a job-wrapped one.
		if err != context.DeadlineExceeded {
			t.Fatalf("workers=%d: Map = %q, want the parent ctx error verbatim", workers, err)
		}
	}
}

func TestMapOwnTimeoutStillSurfaces(t *testing.T) {
	// A job's own deadline (parent still alive) is a real failure and must
	// surface, not be misread as a sibling-cancellation reaction.
	p := NewPool(4)
	err := p.Map(context.Background(), 8, func(_ context.Context, i int) error {
		if i == 3 {
			return fmt.Errorf("job 3 deadline: %w", context.DeadlineExceeded)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("Map = %v, want job 3's own timeout", err)
	}
}

// --- cache never memoizes a panic ------------------------------------------

func TestCacheNeverMemoizesPanic(t *testing.T) {
	c := NewCache()
	k := NewKey("explosive")
	var calls atomic.Int64
	compute := func() (string, error) {
		if calls.Add(1) == 1 {
			panic("first compute dies")
		}
		return "recovered", nil
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first lookup did not propagate the panic")
			}
		}()
		CachedJSON(c, k, compute)
	}()
	v, err := CachedJSON(c, k, compute)
	if err != nil || v != "recovered" {
		t.Fatalf("lookup after panic = (%v, %v), want (recovered, nil)", v, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2 (panic not memoized, success memoized)", calls.Load())
	}
	if v, err := CachedJSON(c, k, compute); err != nil || v != "recovered" {
		t.Fatalf("third lookup = (%v, %v), want the memoized success", v, err)
	}
}

func TestCacheWaitersRecomputeAfterPanic(t *testing.T) {
	// Requesters blocked on an in-flight computation that panics must not
	// receive a zero value: they recompute for themselves.
	c := NewCache()
	k := NewKey("contended")
	release := make(chan struct{})
	var inFirst sync.WaitGroup
	inFirst.Add(1)
	go func() {
		defer func() { recover() }()
		CachedJSON(c, k, func() (string, error) {
			inFirst.Done()
			<-release
			panic("owner dies")
		})
	}()
	inFirst.Wait()
	const waiters = 4
	results := make([]string, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, err := CachedJSON(c, k, func() (string, error) { return "fresh", nil })
			if err != nil {
				t.Errorf("waiter %d: %v", w, err)
			}
			results[w] = v
		}(w)
	}
	time.Sleep(10 * time.Millisecond) // let waiters pile up on the entry
	close(release)
	wg.Wait()
	for w, v := range results {
		if v != "fresh" {
			t.Fatalf("waiter %d got %q, want a recomputed value", w, v)
		}
	}
}

// --- cache never memoizes a requester's cancellation ------------------------

func TestCacheNeverMemoizesCancellation(t *testing.T) {
	t.Run("later caller recomputes after a deadline", func(t *testing.T) {
		c := NewCache()
		k := NewKey("deadline")
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_, err := CachedJSON(c, k, func() (string, error) {
			<-ctx.Done()
			return "", fmt.Errorf("run abandoned: %w", ctx.Err())
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("owner lookup = %v, want its own deadline", err)
		}
		calls := 0
		v, err := CachedJSON(c, k, func() (string, error) { calls++; return "fresh", nil })
		if err != nil || v != "fresh" || calls != 1 {
			t.Fatalf("later lookup = (%v, %v) after %d computes, want a recomputed value", v, err, calls)
		}
	})
	t.Run("blocked waiter recomputes after the owner is canceled", func(t *testing.T) {
		c := NewCache()
		k := NewKey("canceled")
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		ownerErr := make(chan error, 1)
		go func() {
			_, err := CachedJSON(c, k, func() (string, error) {
				close(started)
				<-ctx.Done()
				return "", fmt.Errorf("run abandoned: %w", ctx.Err())
			})
			ownerErr <- err
		}()
		<-started
		type result struct {
			v   string
			err error
		}
		waiter := make(chan result, 1)
		go func() {
			v, err := CachedJSON(c, k, func() (string, error) { return "fresh", nil })
			waiter <- result{v, err}
		}()
		time.Sleep(10 * time.Millisecond) // let the waiter block on the entry
		cancel()
		if err := <-ownerErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("owner lookup = %v, want its own cancellation", err)
		}
		if r := <-waiter; r.err != nil || r.v != "fresh" {
			t.Fatalf("waiter lookup = (%v, %v), want a recomputed value", r.v, r.err)
		}
		// The waiter's success is an ordinary result and stays memoized.
		v, err := CachedJSON(c, k, func() (string, error) { return "", errors.New("recomputed a memoized success") })
		if err != nil || v != "fresh" {
			t.Fatalf("third lookup = (%v, %v), want the memoized success", v, err)
		}
	})
}

// --- JobPolicy --------------------------------------------------------------

type classifiedErr struct{ transient bool }

func (e *classifiedErr) Error() string   { return fmt.Sprintf("classified(transient=%t)", e.transient) }
func (e *classifiedErr) Transient() bool { return e.transient }

func TestPolicyRetriesTransient(t *testing.T) {
	var attempts, notified int
	p := JobPolicy{Retries: 3, OnRetry: func(a int, err error) {
		notified++
		if a != notified {
			t.Fatalf("OnRetry attempt = %d, want %d", a, notified)
		}
	}}
	err := p.Run(context.Background(), "flaky", func(context.Context) error {
		attempts++
		if attempts < 3 {
			return &classifiedErr{transient: true}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v, want success on third attempt", err)
	}
	if attempts != 3 || notified != 2 {
		t.Fatalf("attempts=%d notified=%d, want 3 and 2", attempts, notified)
	}
}

func TestPolicyPermanentFailsImmediately(t *testing.T) {
	var attempts int
	p := JobPolicy{Retries: 5}
	perm := &classifiedErr{transient: false}
	err := p.Run(context.Background(), "doomed", func(context.Context) error {
		attempts++
		return perm
	})
	if !errors.Is(err, perm) {
		t.Fatalf("Run = %v, want the permanent error", err)
	}
	if attempts != 1 {
		t.Fatalf("permanent error retried %d times", attempts-1)
	}
}

func TestPolicyExhaustionNamesJob(t *testing.T) {
	p := JobPolicy{Retries: 2}
	err := p.Run(context.Background(), "stubborn", func(context.Context) error {
		return &classifiedErr{transient: true}
	})
	if err == nil || !strings.Contains(err.Error(), "stubborn") || !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("Run = %v, want exhaustion naming the job and attempt count", err)
	}
	var ce *classifiedErr
	if !errors.As(err, &ce) {
		t.Fatalf("exhaustion error does not wrap the last failure: %v", err)
	}
}

func TestPolicyTimeoutRetriesOnFreshDeadline(t *testing.T) {
	var attempts int
	p := JobPolicy{Timeout: 20 * time.Millisecond, Retries: 2}
	err := p.Run(context.Background(), "slow-then-fast", func(ctx context.Context) error {
		attempts++
		if attempts == 1 {
			<-ctx.Done() // first attempt blows its deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("Run = %v after %d attempts, want nil after 2", err, attempts)
	}
}

func TestPolicyNeverRetriesParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempts int
	p := JobPolicy{Retries: 10, Backoff: time.Millisecond}
	err := p.Run(ctx, "canceled", func(context.Context) error {
		attempts++
		cancel() // the caller gives up mid-attempt
		return context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want Canceled", err)
	}
	if attempts != 1 {
		t.Fatalf("deliberate cancellation retried %d times", attempts-1)
	}
}

func TestEngineRunJobCountsRetries(t *testing.T) {
	e := NewEngine(1)
	e.SetPolicy(JobPolicy{Retries: 4})
	var attempts int
	err := e.RunJob(context.Background(), "counted", func(context.Context) error {
		attempts++
		if attempts < 3 {
			return &classifiedErr{transient: true}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunJob = %v", err)
	}
	if e.Retries() != 2 {
		t.Fatalf("Retries() = %d, want 2", e.Retries())
	}
}

// --- disk cache tier --------------------------------------------------------

func TestDiskCacheRoundTripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("bench", "params")
	payload := []byte(`{"Area":42.5}`)
	if err := d1.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	// A second instance over the same directory — a fresh process — sees it.
	d2, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = (%q, %t), want the stored payload", got, ok)
	}
	if s := d2.Stats(); s.Hits != 1 {
		t.Fatalf("Stats.Hits = %d, want 1", s.Hits)
	}
}

// corrupt applies f to the single .plde entry in dir.
func corrupt(t *testing.T, dir string, f func([]byte) []byte) {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "*"+diskEntryExt))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one entry, got %v (%v)", ents, err)
	}
	data, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ents[0], f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCacheQuarantinesDefectiveEntries(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bit-flip", func(d []byte) []byte {
			d[len(d)/2] ^= 0x40
			return d
		}},
		{"bad-magic", func(d []byte) []byte {
			d[0] ^= 0xFF
			// Re-checksum so only the magic check can reject it.
			return recrc(d)
		}},
		{"stale-version", func(d []byte) []byte {
			d[4]++
			return recrc(d)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDiskCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			k := NewKey("point")
			if err := d.Put(k, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			corrupt(t, dir, tc.corrupt)
			if v, ok := d.Get(k); ok {
				t.Fatalf("Get returned %q from a defective entry", v)
			}
			if s := d.Stats(); s.Quarantined != 1 {
				t.Fatalf("Stats.Quarantined = %d, want 1", s.Quarantined)
			}
			// The defective file is set aside, not consulted again.
			q, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineExt))
			live, _ := filepath.Glob(filepath.Join(dir, "*"+diskEntryExt))
			if len(q) != 1 || len(live) != 0 {
				t.Fatalf("quarantined=%d live=%d, want 1 and 0", len(q), len(live))
			}
			// Re-Put re-creates a valid entry: quarantine-and-recompute.
			if err := d.Put(k, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			if v, ok := d.Get(k); !ok || string(v) != "payload" {
				t.Fatalf("Get after re-Put = (%q, %t)", v, ok)
			}
		})
	}
}

func TestDiskCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Entries are ~60 bytes; cap the tier so only a few fit.
	d, err := OpenDiskCache(dir, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		k := NewKey(fmt.Sprintf("point-%d", i))
		if err := d.Put(k, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is well defined on coarse filesystems.
		now := time.Now().Add(time.Duration(i-6) * time.Second)
		os.Chtimes(d.path(k), now, now)
		d.enforceCap()
	}
	if s := d.Stats(); s.Evicted == 0 {
		t.Fatal("size cap never evicted anything")
	}
	// The newest entry must have survived.
	if _, ok := d.Get(NewKey("point-5")); !ok {
		t.Fatal("most recent entry was evicted")
	}
	// The oldest must be gone.
	if _, ok := d.Get(NewKey("point-0")); ok {
		t.Fatal("least recent entry survived a full cap sweep")
	}
}

// recrc rewrites data's trailing crc32 so header corruptions are reachable
// past the checksum check.
func recrc(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestCachedJSONPersistsAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	type point struct {
		Area       float64
		Infeasible bool
	}
	k := NewKey("dse", "point")
	var computes atomic.Int64
	compute := func() (point, error) {
		computes.Add(1)
		return point{Area: 12.25}, nil
	}

	c1 := NewCache()
	d1, _ := OpenDiskCache(dir, 0)
	c1.AttachDisk(d1)
	v, err := CachedJSON(c1, k, compute)
	if err != nil || v.Area != 12.25 {
		t.Fatalf("first CachedJSON = (%+v, %v)", v, err)
	}

	// A fresh cache (fresh process) over the same tier: disk hit, no compute.
	c2 := NewCache()
	d2, _ := OpenDiskCache(dir, 0)
	c2.AttachDisk(d2)
	v, err = CachedJSON(c2, k, compute)
	if err != nil || v.Area != 12.25 {
		t.Fatalf("resumed CachedJSON = (%+v, %v)", v, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1 (second run served from disk)", computes.Load())
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("Stats.DiskHits = %d, want 1", s.DiskHits)
	}
}

// countedValue counts its JSON encodings through a shared counter.
type countedValue struct {
	N       int
	encodes *atomic.Int64
}

func (v countedValue) MarshalJSON() ([]byte, error) {
	v.encodes.Add(1)
	return json.Marshal(v.N)
}

// TestCachedJSONWithoutDiskSkipsEncoding checks that a cache with no disk
// tier never pays for the JSON encoding only the tier reads.
func TestCachedJSONWithoutDiskSkipsEncoding(t *testing.T) {
	var encodes atomic.Int64
	v, err := CachedJSON(NewCache(), NewKey("memory", "only"), func() (countedValue, error) {
		return countedValue{N: 7, encodes: &encodes}, nil
	})
	if err != nil || v.N != 7 {
		t.Fatalf("CachedJSON = (%+v, %v), want N=7", v, err)
	}
	if n := encodes.Load(); n != 0 {
		t.Fatalf("memory-only lookup encoded the value %d times, want 0", n)
	}
}

func TestCachedJSONNeverPersistsErrors(t *testing.T) {
	dir := t.TempDir()
	k := NewKey("failing", "point")
	boom := errors.New("transient infrastructure failure")

	c1 := NewCache()
	d1, _ := OpenDiskCache(dir, 0)
	c1.AttachDisk(d1)
	if _, err := CachedJSON(c1, k, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if s := d1.Stats(); s.Writes != 0 {
		t.Fatalf("a failed computation was persisted (%d writes)", s.Writes)
	}

	// A fresh process must re-evaluate, not inherit the failure.
	c2 := NewCache()
	d2, _ := OpenDiskCache(dir, 0)
	c2.AttachDisk(d2)
	v, err := CachedJSON(c2, k, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("re-evaluation = (%d, %v), want (7, nil)", v, err)
	}
}

func TestNilDiskCacheDisablesTier(t *testing.T) {
	var d *DiskCache
	if _, ok := d.Get(NewKey("x")); ok {
		t.Fatal("nil tier reported a hit")
	}
	if err := d.Put(NewKey("x"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s != (DiskStats{}) {
		t.Fatalf("nil tier stats = %+v", s)
	}
}

// TestDiskCacheStatsConcurrent pins the SIGINT-summary contract: Stats (and
// Flush) may race with in-flight Put/Get — the deferred shutdown in
// cmd/plasticine reads the counters while workers are still completing — and
// must stay well-defined because every counter is atomic. Run under -race
// in CI; a regression to plain int64 counters fails there.
func TestDiskCacheStatsConcurrent(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				k := NewKey("race", fmt.Sprint(g), fmt.Sprint(i))
				if err := d.Put(k, []byte(`{"v":1}`)); err != nil {
					t.Error(err)
					return
				}
				d.Get(k)
			}
		}(g)
	}
	// The "SIGINT path": snapshot and flush continuously while the writers
	// are mid-flight.
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				d.Stats()
				d.Flush()
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-snapDone
	s := d.Stats()
	if s.Writes != 200 || s.Hits != 200 {
		t.Fatalf("counters after the dust settles: %+v (want 200 writes, 200 hits)", s)
	}
}
