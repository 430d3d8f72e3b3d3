package exec

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueFull is returned by FairQueue.Push when the queue is at its
// bounded capacity. Callers translate it into back-pressure (the serving
// layer answers 429 with a Retry-After hint) instead of queueing unboundedly.
var ErrQueueFull = errors.New("exec: queue full")

// ErrQueueClosed is returned by Push and Pop once the queue has been closed
// (the serving layer closes it during drain, after the dispatchers stop).
var ErrQueueClosed = errors.New("exec: queue closed")

// FairQueue is a bounded multi-tenant queue with fair dequeue: each tenant
// gets its own FIFO, and Pop picks the backlogged tenant with the smallest
// pass, which advances by one per dequeue, so a tenant flooding the queue
// cannot starve the others — backlogged tenants receive equal shares of
// dequeues, and an idle tenant's first request is served promptly rather
// than waiting behind a flood. Within one tenant, order is strictly FIFO.
//
// Safe for concurrent use. Determinism: dequeue order is a pure function of
// the (tenant, push-order) history — ties in virtual time break by tenant
// name — which the schedule tests rely on.
type FairQueue struct {
	mu      sync.Mutex
	tenants map[string]*tenantFIFO
	depth   int
	closed  bool

	// vtime is the queue-wide virtual time: the pass of the last dequeued
	// item. A tenant going from idle to backlogged starts at vtime, not at
	// its stale old pass, so it neither owes credit for its idle period nor
	// gets to claim it back as a burst.
	vtime uint64

	// tokens carries exactly one token per queued item; Pop blocks on it.
	// Its capacity equals the queue bound, so Push never blocks sending.
	tokens chan struct{}
	done   chan struct{}
}

type tenantFIFO struct {
	items []any
	pass  uint64 // virtual time at which this tenant's next item is served
}

// NewFairQueue returns a queue bounded at capacity items (minimum 1).
func NewFairQueue(capacity int) *FairQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &FairQueue{
		tenants: map[string]*tenantFIFO{},
		tokens:  make(chan struct{}, capacity),
		done:    make(chan struct{}),
	}
}

// Push enqueues item for tenant. Returns ErrQueueFull at capacity and
// ErrQueueClosed after Close; never blocks.
func (q *FairQueue) Push(tenant string, item any) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrQueueClosed
	}
	if q.depth >= cap(q.tokens) {
		q.mu.Unlock()
		return ErrQueueFull
	}
	t := q.tenants[tenant]
	if t == nil {
		t = &tenantFIFO{}
		q.tenants[tenant] = t
	}
	if len(t.items) == 0 && t.pass < q.vtime {
		t.pass = q.vtime
	}
	t.items = append(t.items, item)
	q.depth++
	q.mu.Unlock()
	q.tokens <- struct{}{} // capacity == bound, never blocks
	return nil
}

// Pop dequeues the next item under the fair schedule, blocking until one is
// available, ctx dies, or the queue is closed.
func (q *FairQueue) Pop(ctx context.Context) (any, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-q.done:
		return nil, ErrQueueClosed
	case <-q.tokens:
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	// Pick the backlogged tenant with the smallest pass; break ties by name
	// so the schedule is deterministic.
	var bestName string
	var best *tenantFIFO
	for name, t := range q.tenants {
		if len(t.items) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass || (t.pass == best.pass && name < bestName) {
			bestName, best = name, t
		}
	}
	if best == nil {
		// Unreachable while the token invariant holds (one token per item).
		return nil, ErrQueueClosed
	}
	item := best.items[0]
	best.items[0] = nil // release the reference
	best.items = best.items[1:]
	if len(best.items) == 0 {
		best.items = nil
	}
	q.vtime = best.pass
	best.pass++
	q.depth--
	return item, nil
}

// Len reports the number of queued items. Nil-safe.
func (q *FairQueue) Len() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// Cap reports the queue's bound. Nil-safe.
func (q *FairQueue) Cap() int {
	if q == nil {
		return 0
	}
	return cap(q.tokens)
}

// Depths snapshots the per-tenant backlog (tenants with queued items only),
// for stats endpoints. Nil-safe.
func (q *FairQueue) Depths() map[string]int {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := map[string]int{}
	for name, t := range q.tenants {
		if len(t.items) > 0 {
			out[name] = len(t.items)
		}
	}
	return out
}

// Close rejects further Pushes and wakes every blocked Pop with
// ErrQueueClosed. Items still queued are dropped: Close is the hard edge of
// a drain, after in-flight work has been given its chance. Idempotent.
func (q *FairQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.done)
}
