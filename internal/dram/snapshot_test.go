package dram

import (
	"reflect"
	"testing"
)

// TestSnapshotRestoreMidFlight freezes a loaded memory system mid-stream,
// restores the snapshot into a fresh instance, and checks the resumed run is
// cycle-identical to the uninterrupted one.
func TestSnapshotRestoreMidFlight(t *testing.T) {
	cfg := DDR3_1600x4()
	faults := func() *Faults {
		return &Faults{Seed: 9, SpikeProb: 0.2, SpikeCycles: 50,
			TransientProb: 0.1, MaxRetries: 3, RetryBackoff: 16}
	}
	const n = 256
	const freezeAt = 400

	// Uninterrupted reference run, recording every completion cycle by tag.
	ref := make([]int64, n)
	d := New(cfg)
	if err := d.InjectFaults(faults()); err != nil {
		t.Fatal(err)
	}
	next, now := 0, int64(0)
	submitAll := func(dd *DRAM) {
		for next < n && dd.Submit(Request{Addr: uint64(next * 64), Tag: int64(next)}) {
			next++
		}
	}
	tick := func(dd *DRAM, out []int64) {
		for _, tag := range dd.Tick(now) {
			out[tag] = now
		}
	}
	var snap *MemState
	var snapNext int
	for !d.Idle() || next < n {
		now++
		submitAll(d)
		tick(d, ref)
		if now == freezeAt {
			snap = d.Snapshot()
			snapNext = next
		}
		if now > 1_000_000 {
			t.Fatal("stream did not drain")
		}
	}
	if snap == nil {
		t.Fatal("stream finished before the freeze point; lower freezeAt")
	}
	refStats, refChans := d.Stats(), d.ChannelStats()

	// Snapshots must be deterministic: same state twice ⇒ deep-equal.
	d2 := New(cfg)
	if err := d2.InjectFaults(faults()); err != nil {
		t.Fatal(err)
	}
	if err := d2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if again := d2.Snapshot(); !reflect.DeepEqual(snap, again) {
		t.Fatalf("snapshot of restored state differs:\n%+v\n%+v", snap, again)
	}

	// Resume from the snapshot and check the tail matches the reference.
	got := make([]int64, n)
	d3 := New(cfg)
	if err := d3.InjectFaults(faults()); err != nil {
		t.Fatal(err)
	}
	if err := d3.Restore(snap); err != nil {
		t.Fatal(err)
	}
	next, now = snapNext, freezeAt
	for !d3.Idle() || next < n {
		now++
		submitAll(d3)
		tick(d3, got)
		if now > 1_000_000 {
			t.Fatal("restored stream did not drain")
		}
	}
	// Bursts issued after the freeze must complete on exactly the reference
	// cycle; bursts in flight at the freeze land on the reference cycle too (zero means the burst finished pre-freeze).
	for i, at := range got {
		if i >= snapNext && at == 0 {
			t.Fatalf("burst %d never completed after restore", i)
		}
		if at != 0 && at != ref[i] {
			t.Fatalf("burst %d completed at %d after restore, %d uninterrupted", i, at, ref[i])
		}
	}
	if st := d3.Stats(); st != refStats {
		t.Errorf("restored run stats diverge:\n%+v\n%+v", st, refStats)
	}
	if chans := d3.ChannelStats(); !reflect.DeepEqual(chans, refChans) {
		t.Errorf("restored run channel stats diverge:\n%+v\n%+v", chans, refChans)
	}
}

func TestRestoreRejectsMismatchedShape(t *testing.T) {
	d := New(DDR3_1600x4())
	if err := d.Restore(&MemState{}); err == nil {
		t.Error("restoring an empty snapshot into a 4-channel system must fail")
	}
	small := DDR3_1600x4()
	small.Channels = 2
	src := New(small)
	if err := d.Restore(src.Snapshot()); err == nil {
		t.Error("restoring a 2-channel snapshot into a 4-channel system must fail")
	}
}

func TestKillChannelDropsInFlight(t *testing.T) {
	cfg := DDR3_1600x4()
	d := New(cfg)
	d.Tick(0)
	// One burst per channel: burst i maps to channel i.
	for i := 0; i < cfg.Channels; i++ {
		d.Submit(Request{Addr: uint64(i * cfg.BurstBytes), Tag: int64(i)})
	}
	var lost []int64
	dropped, err := d.KillChannel(1, func(tag int64) { lost = append(lost, tag) })
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 || len(lost) != 1 || lost[0] != 1 {
		t.Fatalf("dropped=%d lost=%v, want exactly channel 1's burst", dropped, lost)
	}
	if _, err := d.KillChannel(1, nil); err == nil {
		t.Error("killing an already-down channel must fail")
	}
	if _, err := d.KillChannel(99, nil); err == nil {
		t.Error("killing an out-of-range channel must fail")
	}
	// New traffic for the dead channel remaps to a healthy one.
	if ci := d.channelOf(uint64(1 * cfg.BurstBytes)); ci == 1 || ci < 0 {
		t.Errorf("channel 1 traffic remapped to %d", ci)
	}
	drain(d, 0, nil)
}
