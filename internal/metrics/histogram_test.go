package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundsShape(t *testing.T) {
	b := bucketBounds[:]
	if len(b) != numBuckets {
		t.Fatalf("got %d bounds, want %d", len(b), numBuckets)
	}
	if b[0] != math.Ldexp(1, histExpLo) {
		t.Errorf("first bound = %g, want 2^%d", b[0], histExpLo)
	}
	if b[numBuckets-1] != 512 {
		t.Errorf("last bound = %g, want 512", b[numBuckets-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Errorf("bound[%d]=%g is not 2*bound[%d]=%g", i, b[i], i-1, b[i-1])
		}
	}
}

// TestBucketBoundaryExactness pins the inclusive-upper-bound contract:
// a value exactly on a bound lands in that bucket, the next
// representable value above it lands in the following bucket.
func TestBucketBoundaryExactness(t *testing.T) {
	for i, bound := range bucketBounds {
		if got := bucketFor(bound); got != i {
			t.Errorf("bucketFor(%g) = %d, want %d", bound, got, i)
		}
		above := math.Nextafter(bound, math.Inf(1))
		want := i + 1
		if got := bucketFor(above); got != want {
			t.Errorf("bucketFor(%g) = %d, want %d", above, got, want)
		}
	}
	if got := bucketFor(0); got != 0 {
		t.Errorf("bucketFor(0) = %d, want 0", got)
	}
	if got := bucketFor(1e9); got != numBuckets {
		t.Errorf("bucketFor(1e9) = %d, want overflow bucket %d", got, numBuckets)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_neg_seconds", "")
	h.Observe(-1)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.Sum() != 0 {
		t.Errorf("sum = %g, want 0", h.Sum())
	}
	if got := h.s.h.counts[0].Load(); got != 1 {
		t.Errorf("smallest bucket = %d, want 1", got)
	}
}

// TestHistogramConcurrentRecord is the -race workout: many goroutines
// observing one series must lose no updates.
func TestHistogramConcurrentRecord(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", "")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001) // exactly 1e6 ns: sum stays exact
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
	if got := h.Sum(); got != workers*per*0.001 {
		t.Errorf("sum = %g, want %g", got, workers*per*0.001)
	}
}

func TestHistogramObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_since_seconds", "")
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if s := h.Sum(); s < 0.009 || s > 5 {
		t.Errorf("sum = %g, want ≥ 10ms and sane", s)
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram leaked values")
	}
	var r *Registry
	r.Histogram("x", "").Observe(1)
	r.HistogramVec("x", "", "l").With("v").Observe(1)
}
