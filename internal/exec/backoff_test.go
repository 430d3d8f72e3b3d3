package exec

import (
	"testing"
	"time"
)

// TestRetryDelaySchedule pins the whole schedule: exponential doubling, cap
// saturation, and jitter bounded to [½d, d] of the raw (capped) delay.
func TestRetryDelaySchedule(t *testing.T) {
	p := JobPolicy{Backoff: BackoffCap / 8}
	raw := []time.Duration{
		BackoffCap / 8, // retry 1
		BackoffCap / 4, // retry 2
		BackoffCap / 2, // retry 3
		BackoffCap,     // retry 4: hits the cap
		BackoffCap,     // retry 5: stays there
		BackoffCap,     // retry 6
	}
	for r, want := range raw {
		got := p.RetryDelay("job", r+1)
		if got < want/2 || got > want {
			t.Fatalf("RetryDelay(retry %d) = %v, want within [%v, %v]", r+1, got, want/2, want)
		}
	}
}

func TestRetryDelayDeterministic(t *testing.T) {
	p := JobPolicy{Backoff: 50 * time.Millisecond}
	for r := 1; r <= 8; r++ {
		a, b := p.RetryDelay("GEMM", r), p.RetryDelay("GEMM", r)
		if a != b {
			t.Fatalf("retry %d: schedule not deterministic (%v vs %v)", r, a, b)
		}
	}
}

// TestRetryDelayDecorrelatesJobs is the retry-storm property: many jobs
// failing together must not all pick the same pause. With jitter spanning a
// 2× range, 32 distinct labels collapsing onto one value would mean the
// label is not feeding the hash.
func TestRetryDelayDecorrelatesJobs(t *testing.T) {
	p := JobPolicy{Backoff: time.Second}
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		seen[p.RetryDelay(time.Duration(i).String(), 3)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("32 jobs drew only %d distinct delays; retries would synchronize", len(seen))
	}
}

func TestRetryDelayZeroBackoff(t *testing.T) {
	var p JobPolicy
	if d := p.RetryDelay("job", 3); d != 0 {
		t.Fatalf("zero policy RetryDelay = %v, want 0", d)
	}
}

// TestRetryDelayDefaultCap checks a policy far past the cap's retry count
// still saturates at BackoffCap instead of doubling forever.
func TestRetryDelayDefaultCap(t *testing.T) {
	p := JobPolicy{Backoff: time.Second}
	if d := p.RetryDelay("job", 40); d > BackoffCap {
		t.Fatalf("retry 40 delay %v exceeds the cap %v", d, BackoffCap)
	}
}
