package dram

import (
	"math/rand"
	"testing"
)

// scanHead is the reference for the cached landing head: the channel
// holding the first of all in-flight bursts in landing order (cycle, then
// scheduling sequence), or -1 when nothing is in flight.
func scanHead(d *DRAM) int {
	head := -1
	var first timed
	for ci := range d.channels {
		for _, f := range d.channels[ci].flights.items() {
			if head < 0 || landingOrder(f, first) < 0 {
				head, first = ci, f
			}
		}
	}
	return head
}

// TestLandingHeadMatchesScan drives random traffic over four channels
// through Submit and Tick, with latency spikes, transient retries, a short
// refresh interval and one channel killed mid-run, then drains it. After
// every call the cached head must name the channel a scan over every flight
// queue names. Two floors keep the test honest: some ticks must leave a
// burst they scheduled at the head, and some kill must take the head's
// channel.
func TestLandingHeadMatchesScan(t *testing.T) {
	var pushedHeads, killedHeads int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DDR3_1600x4()
		cfg.TREFI = 400 + rng.Intn(400)
		d := New(cfg)
		if err := d.InjectFaults(&Faults{Seed: seed, SpikeProb: 0.05, SpikeCycles: 200,
			TransientProb: 0.05, MaxRetries: 3, RetryBackoff: 16}); err != nil {
			t.Fatal(err)
		}
		check := func(step int, call string) {
			t.Helper()
			if got, want := d.head, scanHead(d); got != want {
				t.Fatalf("seed %d step %d: after %s the head is channel %d, a scan finds %d", seed, step, call, got, want)
			}
		}
		// One channel's share of the traffic, or all four, so queues fill
		// on some runs and drain evenly on others.
		stride := uint64(cfg.BurstBytes)
		if rng.Intn(2) == 0 {
			stride *= uint64(cfg.Channels)
		}
		killAt := 100 + rng.Intn(200)
		tag, now := int64(0), int64(0)
		for step := 0; step < 400 || !d.Idle(); step++ {
			for n := rng.Intn(4); step < 400 && n > 0; n-- {
				d.Submit(Request{Addr: uint64(rng.Intn(1<<14)) * stride, Write: rng.Intn(2) == 0, Tag: tag})
				tag++
				check(step, "Submit")
			}
			if next := d.NextEventAt(now); rng.Intn(2) == 0 && next > now {
				now = next
			} else {
				now += 1 + int64(rng.Intn(20))
			}
			seq := d.seq
			d.Tick(now)
			check(step, "Tick")
			if d.head >= 0 && d.channels[d.head].flights.front().seq >= seq {
				pushedHeads++
			}
			if step == killAt {
				c := rng.Intn(cfg.Channels)
				if c == d.head {
					killedHeads++
				}
				if _, err := d.KillChannel(c, nil); err != nil {
					t.Fatal(err)
				}
				check(step, "KillChannel")
			}
		}
	}
	if pushedHeads == 0 || killedHeads == 0 {
		t.Fatalf("%d ticks left a burst they scheduled at the head and %d kills took the head's channel; want both above 0",
			pushedHeads, killedHeads)
	}
	t.Logf("%d ticks left a burst they scheduled at the head, %d kills took the head's channel", pushedHeads, killedHeads)
}
