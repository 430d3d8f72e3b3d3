package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

func TestFairQueueFIFOWithinTenant(t *testing.T) {
	q := NewFairQueue(8)
	for i := 0; i < 5; i++ {
		if err := q.Push("t", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		v, err := q.Pop(context.Background())
		if err != nil || v.(int) != i {
			t.Fatalf("Pop %d = (%v, %v), want in-order FIFO", i, v, err)
		}
	}
}

func TestFairQueueBounded(t *testing.T) {
	q := NewFairQueue(2)
	if err := q.Push("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("b", 2); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("c", 3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Push over capacity = %v, want ErrQueueFull", err)
	}
	if _, err := q.Pop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("c", 3); err != nil {
		t.Fatalf("Push after Pop freed a slot = %v", err)
	}
}

// TestFairQueueEqualShare floods the queue from two tenants and checks
// the dequeue interleaving: backlogged tenants drain at the same rate.
func TestFairQueueEqualShare(t *testing.T) {
	q := NewFairQueue(64)
	for i := 0; i < 12; i++ {
		if err := q.Push("a", "a"); err != nil {
			t.Fatal(err)
		}
		if err := q.Push("b", "b"); err != nil {
			t.Fatal(err)
		}
	}
	a := 0
	for i := 0; i < 10; i++ {
		v, err := q.Pop(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v.(string) == "a" {
			a++
		}
	}
	if a != 5 {
		t.Fatalf("tenant a got %d of the first 10 dequeues, want 5", a)
	}
}

// TestFairQueueFloodCannotStarve checks the headline admission property: a
// tenant arriving behind another tenant's flood is served on the very next
// dequeue, not after the flood.
func TestFairQueueFloodCannotStarve(t *testing.T) {
	q := NewFairQueue(64)
	for i := 0; i < 20; i++ {
		if err := q.Push("flooder", "flooder"); err != nil {
			t.Fatal(err)
		}
	}
	// Drain a few so the flooder's virtual pass advances past zero.
	for i := 0; i < 3; i++ {
		if _, err := q.Pop(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push("newcomer", "newcomer"); err != nil {
		t.Fatal(err)
	}
	v, err := q.Pop(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.(string) != "newcomer" {
		t.Fatalf("newcomer behind a 17-deep flood was dequeued %q first", v)
	}
}

func TestFairQueueDeterministicTieBreak(t *testing.T) {
	// Two fresh tenants share pass 0; the tie must break by name, every time.
	for trial := 0; trial < 10; trial++ {
		q := NewFairQueue(8)
		if err := q.Push("zeta", "zeta"); err != nil {
			t.Fatal(err)
		}
		if err := q.Push("alpha", "alpha"); err != nil {
			t.Fatal(err)
		}
		v, err := q.Pop(context.Background())
		if err != nil || v.(string) != "alpha" {
			t.Fatalf("trial %d: first Pop = (%v, %v), want alpha by name tie-break", trial, v, err)
		}
	}
}

func TestFairQueuePopBlocksAndUnblocks(t *testing.T) {
	q := NewFairQueue(4)
	got := make(chan any, 1)
	go func() {
		v, _ := q.Pop(context.Background())
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	if err := q.Push("t", "late"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v.(string) != "late" {
			t.Fatalf("Pop = %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop never unblocked after Push")
	}
}

func TestFairQueueClose(t *testing.T) {
	q := NewFairQueue(4)
	ctx := context.Background()
	errs := make(chan error, 1)
	go func() {
		_, err := q.Pop(ctx)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	q.Close() // idempotent
	select {
	case err := <-errs:
		if !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("Pop after Close = %v, want ErrQueueClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close never woke the blocked Pop")
	}
	if err := q.Push("t", 1); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Push after Close = %v, want ErrQueueClosed", err)
	}
}

func TestFairQueuePopHonorsContext(t *testing.T) {
	q := NewFairQueue(4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Pop(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Pop on empty queue = %v, want DeadlineExceeded", err)
	}
}

func TestFairQueueDepths(t *testing.T) {
	q := NewFairQueue(8)
	q.Push("a", 1)
	q.Push("a", 2)
	q.Push("b", 3)
	d := q.Depths()
	if d["a"] != 2 || d["b"] != 1 || len(d) != 2 {
		t.Fatalf("Depths = %v", d)
	}
	if q.Len() != 3 || q.Cap() != 8 {
		t.Fatalf("Len/Cap = %d/%d", q.Len(), q.Cap())
	}
}

func TestPoolRunningOccupancy(t *testing.T) {
	p := NewPool(4)
	if p.Running() != 0 {
		t.Fatalf("idle pool reports %d running", p.Running())
	}
	release := make(chan struct{})
	peak := make(chan int, 1)
	var once sync.Once
	var started sync.WaitGroup
	started.Add(4)
	go func() {
		started.Wait()
		once.Do(func() { peak <- p.Running() })
		close(release)
	}()
	err := p.Map(context.Background(), 4, func(ctx context.Context, i int) error {
		started.Done()
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-peak; got != 4 {
		t.Fatalf("Running() at peak = %d, want 4", got)
	}
	if p.Running() != 0 {
		t.Fatalf("Running() after Map = %d, want 0", p.Running())
	}
}

// TestDiskCacheEvictionDeterministicOnCoarseMtimes pins every entry to the
// same second — what a burst of writes looks like on a filesystem with 1s
// mtime resolution — and checks that eviction picks the same victims every
// time (name order), independent of directory iteration order.
func TestDiskCacheEvictionDeterministicOnCoarseMtimes(t *testing.T) {
	survivors := func() []string {
		dir := t.TempDir()
		d, err := OpenDiskCache(dir, 220)
		if err != nil {
			t.Fatal(err)
		}
		stamp := time.Now().Truncate(time.Second).Add(-time.Hour)
		for i := 0; i < 6; i++ {
			k := NewKey(fmt.Sprintf("point-%d", i))
			if err := d.Put(k, []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			// Coarse clock: every entry shares one mtime.
			if err := os.Chtimes(d.path(k), stamp, stamp); err != nil {
				t.Fatal(err)
			}
		}
		d.enforceCap()
		if s := d.Stats(); s.Evicted == 0 {
			t.Fatal("cap sweep over budget evicted nothing")
		}
		var kept []string
		for i := 0; i < 6; i++ {
			if _, ok := d.Get(NewKey(fmt.Sprintf("point-%d", i))); ok {
				kept = append(kept, fmt.Sprintf("point-%d", i))
			}
		}
		return kept
	}
	first := survivors()
	if len(first) == 0 || len(first) == 6 {
		t.Fatalf("survivors = %v, want a strict subset", first)
	}
	for trial := 0; trial < 3; trial++ {
		if got := survivors(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("trial %d survivors = %v, first run = %v; eviction under equal mtimes is nondeterministic", trial, got, first)
		}
	}
}
