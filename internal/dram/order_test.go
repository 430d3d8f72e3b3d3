package dram

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// These tests pin the order in which the memory system lands bursts, lists
// them in snapshots and reports them lost. The fault PRNG draws once per
// landing, so the order fixes every faulted run's counters and checkpoint
// bytes: completions fire by cycle, and same-cycle completions on different
// channels fire in the order they were scheduled.

// tickUntil ticks d from cycle from+1 through to, returning each landed tag
// with its cycle in firing order.
func tickUntil(d *DRAM, from, to int64) (tags, cycles []int64) {
	for now := from + 1; now <= to; now++ {
		for _, tag := range d.Tick(now) {
			tags = append(tags, tag)
			cycles = append(cycles, now)
		}
	}
	return tags, cycles
}

func TestSameCycleLandingsFireInSchedulingOrder(t *testing.T) {
	cfg := DDR3_1600x4()
	d := New(cfg)
	d.Tick(0)
	// Burst A opens row 0 of channel 0's bank 0.
	d.Submit(Request{Addr: 0, Tag: 'A'})
	tickUntil(d, 0, 15)
	// Burst C, a row miss on channel 1, is scheduled at cycle 16 ...
	d.Submit(Request{Addr: 64, Tag: 'C'})
	tickUntil(d, 15, 29)
	// ... and burst B, a row hit on channel 0, at cycle 30. Both land at 49:
	// 16 + tRCD + tCAS + burst for C, 30 + tCAS behind A's bus slot for B.
	d.Submit(Request{Addr: uint64(cfg.BurstBytes * cfg.Channels), Tag: 'B'})
	tags, cycles := tickUntil(d, 29, 100)
	if !reflect.DeepEqual(tags, []int64{'A', 'C', 'B'}) || cycles[1] != cycles[2] {
		t.Fatalf("landed %q at %v, want A, then C and B in one cycle", tags, cycles)
	}
	if hits := totals(d).RowHits; hits != 1 {
		t.Fatalf("row hits = %d, want 1 (B must hit A's open row)", hits)
	}
}

// loaded returns a memory system mid-way through a random stream, with
// bursts queued and in flight on every channel.
func loaded(seed int64) (*DRAM, int64) {
	cfg := DDR3_1600x4()
	d := New(cfg)
	rng := rand.New(rand.NewSource(seed))
	tag := int64(0)
	now := int64(0)
	for ; now < 300; now++ {
		for i := 0; i < 2; i++ {
			addr := uint64(rng.Intn(1<<22)) &^ uint64(cfg.BurstBytes-1)
			if d.Submit(Request{Addr: addr, Tag: tag}) {
				tag++
			}
		}
		d.Tick(now)
	}
	return d, now - 1
}

func TestSnapshotPendingInLandingOrder(t *testing.T) {
	d, now := loaded(3)
	snap := d.Snapshot()
	if len(snap.Pending) < 8 {
		t.Fatalf("only %d bursts in flight; load the system harder", len(snap.Pending))
	}
	crossTies := 0
	for i := 1; i < len(snap.Pending); i++ {
		a, b := snap.Pending[i-1], snap.Pending[i]
		if b.At < a.At {
			t.Fatalf("Pending[%d] lands at %d after Pending[%d] at %d", i, b.At, i-1, a.At)
		}
		if a.At == b.At && d.channelOf(a.Addr) != d.channelOf(b.Addr) {
			crossTies++
		}
	}
	if crossTies == 0 {
		t.Fatal("no same-cycle landings on different channels; the test checks nothing")
	}

	// Restore then Snapshot reproduces the list, and the restored system
	// lands the bursts in exactly that order, as the original does.
	r := New(DDR3_1600x4())
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if again := r.Snapshot(); !reflect.DeepEqual(snap, again) {
		t.Fatalf("snapshot of the restored system differs:\n%+v\n%+v", snap, again)
	}
	want := make([]int64, len(snap.Pending))
	for i, rs := range snap.Pending {
		want[i] = rs.Tag
	}
	last := snap.Pending[len(snap.Pending)-1].At
	for _, sys := range []*DRAM{d, r} {
		got, _ := tickUntil(sys, now, last)
		// Queued bursts scheduled after the snapshot may land in the same
		// window; the snapshot's bursts must come first, in list order.
		var pendingOnly []int64
		for _, tag := range got {
			if slices.Contains(want, tag) {
				pendingOnly = append(pendingOnly, tag)
			}
		}
		if !reflect.DeepEqual(pendingOnly, want) {
			t.Fatalf("landing order %v, snapshot order %v", pendingOnly, want)
		}
	}
}

func TestRestoreRejectsOutOfOrderPending(t *testing.T) {
	d, _ := loaded(5)
	snap := d.Snapshot()
	// Find two bursts in flight on one channel that land on different
	// cycles and swap them.
	for i := range snap.Pending {
		for j := i + 1; j < len(snap.Pending); j++ {
			a, b := snap.Pending[i], snap.Pending[j]
			if d.channelOf(a.Addr) != d.channelOf(b.Addr) || a.At == b.At {
				continue
			}
			snap.Pending[i], snap.Pending[j] = b, a
			if err := New(DDR3_1600x4()).Restore(snap); err == nil {
				t.Fatal("Restore accepted a channel's completions out of cycle order")
			}
			// In order, but landing after the channel's bus frees: a burst
			// the channel schedules next would land first.
			snap = d.Snapshot()
			last := &snap.Pending[len(snap.Pending)-1]
			last.At = snap.BusFree[d.channelOf(last.Addr)] + 1
			if err := New(DDR3_1600x4()).Restore(snap); err == nil {
				t.Fatal("Restore accepted a completion after its channel's bus frees")
			}
			return
		}
	}
	t.Fatal("no channel has two bursts in flight on different cycles")
}

func TestKillChannelReportsQueuedThenInFlightThenRetries(t *testing.T) {
	cfg := DDR3_1600x4()
	d := New(cfg)
	// Every landing fails, with a backoff long enough that R stays in the
	// retry queue while the rest of the test runs.
	if err := d.InjectFaults(&Faults{Seed: 1, TransientProb: 1, MaxRetries: 4, RetryBackoff: 1000}); err != nil {
		t.Fatal(err)
	}
	ch1 := func(i int) uint64 { return uint64(cfg.BurstBytes * (1 + i*cfg.Channels)) }
	d.Tick(0)
	d.Submit(Request{Addr: ch1(0), Tag: 'R'})
	d.Submit(Request{Addr: 0, Tag: 'x'}) // channel 0: survives the kill
	tickUntil(d, 0, 40)
	if len(d.retryq) != 2 {
		t.Fatalf("%d bursts awaiting retry, want 2", len(d.retryq))
	}
	d.Submit(Request{Addr: ch1(1), Tag: 'F'})
	d.Submit(Request{Addr: ch1(2), Tag: 'G'})
	d.Submit(Request{Addr: 2 * uint64(cfg.BurstBytes), Tag: 'y'}) // channel 2
	tickUntil(d, 40, 50)
	d.Submit(Request{Addr: ch1(3), Tag: 'P'})
	d.Submit(Request{Addr: ch1(4), Tag: 'Q'})
	if got := d.channels[1].flights.len(); got != 2 {
		t.Fatalf("channel 1 has %d bursts in flight, want 2", got)
	}
	var lost []int64
	n, err := d.KillChannel(1, func(tag int64) { lost = append(lost, tag) })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{'P', 'Q', 'F', 'G', 'R'}; n != len(want) || !reflect.DeepEqual(lost, want) {
		t.Fatalf("lost %d: %q, want queued, then in flight in scheduling order, then retrying: %q", n, lost, want)
	}
	if d.EventCount() != 2 {
		t.Errorf("%d events left, want channel 2's burst in flight and x's retry", d.EventCount())
	}
}
