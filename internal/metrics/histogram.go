package metrics

import (
	"sync/atomic"
	"time"
)

// The histogram is log-bucketed base 2: bucket i has upper bound
// 2^(i+histExpLo) seconds. With histExpLo = -20 and numBuckets = 30 the
// bounds run from 2^-20 s (~0.95 µs) to 2^9 s (512 s), which spans every
// latency this service produces — a cache hit (~µs) through a CNN
// simulation under -race on a loaded CI box (~minutes). One extra
// overflow bucket catches anything slower. Each bucket's upper bound is
// exactly twice its lower bound, so a bucket places a value within a
// factor of 2.
const (
	numBuckets = 30
	histExpLo  = -20 // exponent of the first bucket's upper bound
)

// bucketBounds[i] is the inclusive upper bound, in seconds, of bucket i.
var bucketBounds = func() [numBuckets]float64 {
	var b [numBuckets]float64
	v := 1.0
	for i := 0; i < -histExpLo; i++ {
		v /= 2
	}
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// histState is the shared storage behind one histogram series. Counts
// are per-bucket (not cumulative; the exposition writer accumulates),
// and the sum is kept in integer nanoseconds so concurrent observation
// needs no floating-point CAS loop.
type histState struct {
	counts [numBuckets + 1]atomic.Int64 // [numBuckets] is the +Inf bucket
	sumNs  atomic.Int64
	count  atomic.Int64
}

func newHistState() *histState { return &histState{} }

// bucketFor returns the index of the bucket v seconds belongs to.
func bucketFor(v float64) int {
	for i := range bucketBounds {
		if v <= bucketBounds[i] {
			return i
		}
	}
	return numBuckets
}

func (h *histState) observe(v float64) {
	if v < 0 {
		// Clock steps can produce slightly negative elapsed times;
		// fold them into the smallest bucket rather than corrupting
		// the sum.
		v = 0
	}
	h.counts[bucketFor(v)].Add(1)
	h.sumNs.Add(int64(v * float64(time.Second)))
	h.count.Add(1)
}

// Histogram records durations in seconds. All methods are nil-safe.
type Histogram struct{ s *series }

// Observe records one value in seconds.
func (h *Histogram) Observe(seconds float64) {
	if h == nil || h.s == nil || h.s.h == nil {
		return
	}
	h.s.h.observe(seconds)
}

// ObserveSince records the elapsed time since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count reports how many values have been recorded.
func (h *Histogram) Count() int64 {
	if h == nil || h.s == nil || h.s.h == nil {
		return 0
	}
	return h.s.h.count.Load()
}

// Sum reports the sum of all recorded values, in seconds.
func (h *Histogram) Sum() float64 {
	if h == nil || h.s == nil || h.s.h == nil {
		return 0
	}
	return float64(h.s.h.sumNs.Load()) / float64(time.Second)
}
