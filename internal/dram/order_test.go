package dram

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// These tests pin the order in which the memory system lands bursts and
// reports them lost. The fault PRNG draws once per landing, so the order
// fixes every faulted run's counters: completions fire by cycle, and
// same-cycle completions on different channels fire in the order they were
// scheduled.

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

// landingOrder orders scheduled completions the way Tick fires them: by
// cycle, then by scheduling sequence.
func landingOrder(a, b timed) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// TestSnapshotPendingInLandingOrder takes the bursts in flight at one
// instant and requires Tick to land them by cycle, same-cycle landings on
// different channels in scheduling order.
func TestSnapshotPendingInLandingOrder(t *testing.T) {
	d, now := loaded(3)
	var pending []timed
	for ci := range d.channels {
		pending = append(pending, d.channels[ci].flights.items()...)
	}
	if len(pending) < 8 {
		t.Fatalf("only %d bursts in flight; load the system harder", len(pending))
	}
	slices.SortFunc(pending, landingOrder)
	crossTies := 0
	for i := 1; i < len(pending); i++ {
		a, b := pending[i-1], pending[i]
		if a.at == b.at && d.channelOf(a.Addr) != d.channelOf(b.Addr) {
			crossTies++
		}
	}
	if crossTies == 0 {
		t.Fatal("no same-cycle landings on different channels; the test checks nothing")
	}

	want := make([]int64, len(pending))
	for i, p := range pending {
		want[i] = p.Tag
	}
	got, _ := tickUntil(d, now, pending[len(pending)-1].at)
	// Queued bursts scheduled after that instant may land in the same
	// window; the bursts in flight must come first, in landing order.
	var pendingOnly []int64
	for _, tag := range got {
		if slices.Contains(want, tag) {
			pendingOnly = append(pendingOnly, tag)
		}
	}
	if !reflect.DeepEqual(pendingOnly, want) {
		t.Fatalf("landing order %v, (cycle, seq) order %v", pendingOnly, want)
	}
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
