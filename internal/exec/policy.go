package exec

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Transienter is implemented by errors that classify their own
// retryability. sim.WatchdogError implements it: an abort caused by a dying
// context is transient (the cancel may have come from a failing sibling,
// not this design point), while budget exhaustion, stalls and deadlocks are
// properties of the point itself and will recur on retry.
type Transienter interface{ Transient() bool }

// Transient reports whether err is worth retrying under a JobPolicy. An
// error anywhere in the chain that implements Transienter decides for
// itself. Otherwise a bare context cancellation or deadline expiry is
// presumed spurious — JobPolicy.Run checks its own context before retrying,
// so a deliberate parent cancel is never retried — and everything else
// (compile failures, infeasible points, functional-check mismatches, panics)
// is permanent.
func Transient(err error) bool {
	var t Transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// JobPolicy bounds and retries one evaluation job. The zero value imposes
// nothing: no deadline, no retries — exactly the pre-policy behaviour.
type JobPolicy struct {
	// Timeout is the per-attempt deadline (0 = none). An attempt that
	// exceeds it fails with context.DeadlineExceeded, which is transient:
	// with Retries > 0 the job runs again on a fresh deadline.
	Timeout time.Duration

	// Retries is how many additional attempts a transiently-failing job
	// gets after the first. Permanent errors never retry.
	Retries int

	// Backoff is the base pause before retry r (1-based): Backoff doubles
	// per retry up to BackoffCap, then deterministic jitter scales the pause
	// into [½d, d] so a fleet of jobs that failed together does not retry in
	// lockstep. 0 retries immediately. See RetryDelay for the exact schedule.
	Backoff time.Duration

	// OnRetry observes every retry decision before the backoff pause:
	// attempt is the 1-based retry number and err the transient failure
	// being retried. The CLI wires this to stderr for deterministic retry
	// accounting; nil means silent.
	OnRetry func(attempt int, err error)
}

// Run executes fn under the policy: each attempt gets its own deadline
// (when Timeout > 0), transient failures are retried up to Retries times
// with exponential backoff, and permanent failures return immediately.
// label names the job in retry-exhaustion errors. If the caller's ctx dies,
// Run stops immediately — a deliberate cancellation is never retried.
func (p JobPolicy) Run(ctx context.Context, label string, fn func(context.Context) error) error {
	if label == "" {
		label = "job"
	}
	retries := p.Retries
	if retries < 0 {
		retries = 0
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = func() error {
			actx := ctx
			cancel := func() {}
			if p.Timeout > 0 {
				actx, cancel = context.WithTimeout(ctx, p.Timeout)
			}
			defer cancel()
			return fn(actx)
		}()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's context is gone: whatever fn returned is a
			// consequence of that, not something a retry can fix.
			return err
		}
		if !Transient(err) {
			return err
		}
		if attempt == retries {
			break
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt+1, err)
		}
		if d := p.RetryDelay(label, attempt+1); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	if retries > 0 {
		return fmt.Errorf("exec: %s: gave up after %d attempts: %w", label, retries+1, err)
	}
	return err
}

// BackoffCap bounds exponential backoff growth: past it, every further
// retry waits the cap (jittered).
const BackoffCap = 30 * time.Second

// RetryDelay is the pause before retry r (1-based) of the job named label:
// capped exponential backoff with deterministic jitter.
//
// The raw delay doubles from Backoff — Backoff, 2·Backoff, 4·Backoff, … —
// and saturates at BackoffCap; a Backoff above the cap clamps every pause.
// Jitter then scales it by a factor in [½, 1] drawn from an FNV-1a hash of
// (label, r): deterministic, so a retry schedule is reproducible and
// testable, but decorrelated across labels, so the retry storm after a
// shared transient failure (many queued jobs timing out together) fans out
// instead of hammering the same instant. Returns 0 when Backoff is 0.
func (p JobPolicy) RetryDelay(label string, retry int) time.Duration {
	if p.Backoff <= 0 || retry < 1 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < retry && d < BackoffCap; i++ {
		if d > BackoffCap/2 {
			d = BackoffCap
		} else {
			d *= 2
		}
	}
	if d > BackoffCap {
		d = BackoffCap
	}
	// Deterministic jitter in [½d, d]: hash → uniform fraction in [0, 1).
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(uint64(retry) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	frac := float64(h.Sum64()%(1<<20)) / (1 << 20)
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}
