package dram

import "testing"

func TestInjectFaultsValidation(t *testing.T) {
	d := New(DDR3_1600x4())
	if err := d.InjectFaults(&Faults{Down: make([]bool, 5)}); err == nil {
		t.Error("marking more channels than exist must fail")
	}
	if err := d.InjectFaults(nil); err != nil {
		t.Errorf("nil faults: %v", err)
	}
}

func TestDownChannelRemap(t *testing.T) {
	cfg := DDR3_1600x4()
	d := New(cfg)
	if err := d.InjectFaults(&Faults{Down: []bool{true}}); err != nil {
		t.Fatal(err)
	}
	d.Tick(0)
	// Burst 0 natively maps to channel 0, which is down; it must land on a
	// healthy channel and still complete.
	if !d.Submit(Request{Addr: 0, Tag: 1}) {
		t.Fatal("submit to remapped channel rejected")
	}
	if occ := d.QueueOccupancy(); occ[0] != 0 {
		t.Errorf("downed channel 0 received a request: %v", occ)
	}
	landed := map[int64]int64{}
	drain(d, 0, landed)
	if _, done := landed[1]; !done {
		t.Error("remapped request never completed")
	}
}

func TestAllChannelsDownRejectsEverything(t *testing.T) {
	d := New(DDR3_1600x4())
	if err := d.InjectFaults(&Faults{Down: []bool{true, true, true, true}}); err != nil {
		t.Fatal(err)
	}
	d.Tick(0)
	if ci, ok := d.Accepts(0); ok || ci != -1 {
		t.Errorf("Accepts(0) = %d, %v with every channel down, want -1, false", ci, ok)
	}
	if d.Submit(Request{Addr: 0}) {
		t.Error("Submit with every channel down")
	}
}

func TestTransientRetries(t *testing.T) {
	d := New(DDR3_1600x4())
	if err := d.InjectFaults(&Faults{
		Seed: 5, TransientProb: 1, MaxRetries: 2, RetryBackoff: 8,
	}); err != nil {
		t.Fatal(err)
	}
	d.Tick(0)
	n := 4
	for i := 0; i < n; i++ {
		d.Submit(Request{Addr: uint64(i * 64), Tag: int64(i)})
	}
	landed := map[int64]int64{}
	drain(d, 0, landed)
	if completions := len(landed); completions != n {
		t.Fatalf("only %d/%d bursts completed despite bounded retries", completions, n)
	}
	st := d.Stats()
	// With probability 1 every burst fails until it exhausts MaxRetries.
	if st.Retries != int64(n*2) {
		t.Errorf("retries = %d, want %d", st.Retries, n*2)
	}
	if st.RetriesExhausted != int64(n) {
		t.Errorf("exhausted = %d, want %d", st.RetriesExhausted, n)
	}
}

// TestMaxRetriesFitsTheAttemptCounter pins the retry bound an entry's
// one-byte attempt counter sets: the largest bound it can count runs to
// exhaustion, one more is refused, unless no burst can fail.
func TestMaxRetriesFitsTheAttemptCounter(t *testing.T) {
	d := New(DDR3_1600x4())
	if err := d.InjectFaults(&Faults{TransientProb: 1, MaxRetries: maxAttempts + 1}); err == nil {
		t.Errorf("InjectFaults accepted MaxRetries %d, above the %d an entry counts", maxAttempts+1, maxAttempts)
	}
	if err := d.InjectFaults(&Faults{MaxRetries: maxAttempts + 1}); err != nil {
		t.Errorf("InjectFaults refused MaxRetries %d with no transient failures: %v", maxAttempts+1, err)
	}
	if err := d.InjectFaults(&Faults{TransientProb: 1, MaxRetries: maxAttempts}); err != nil {
		t.Fatal(err)
	}
	d.Submit(Request{Addr: 0})
	drain(d, 0, nil)
	if st := d.Stats(); st.Retries != maxAttempts || st.RetriesExhausted != 1 {
		t.Errorf("%d retries, %d exhausted; want %d and 1", st.Retries, st.RetriesExhausted, maxAttempts)
	}
}

func TestRetryDelaysCompletion(t *testing.T) {
	// A retried burst completes later than an unfaulted one.
	base := New(DDR3_1600x4())
	base.Tick(0)
	landed := map[int64]int64{}
	base.Submit(Request{Addr: 0})
	drain(base, 0, landed)
	baseAt := landed[0]

	d := New(DDR3_1600x4())
	if err := d.InjectFaults(&Faults{Seed: 1, TransientProb: 1, MaxRetries: 1, RetryBackoff: 32}); err != nil {
		t.Fatal(err)
	}
	d.Tick(0)
	d.Submit(Request{Addr: 0})
	drain(d, 0, landed)
	if retriedAt := landed[0]; retriedAt <= baseAt {
		t.Errorf("retried burst at %d not later than pristine %d", retriedAt, baseAt)
	}
}

func TestLatencySpikes(t *testing.T) {
	d := New(DDR3_1600x4())
	if err := d.InjectFaults(&Faults{Seed: 3, SpikeProb: 1, SpikeCycles: 500}); err != nil {
		t.Fatal(err)
	}
	d.Tick(0)
	d.Submit(Request{Addr: 0})
	landed := map[int64]int64{}
	drain(d, 0, landed)
	doneAt := landed[0]
	// Pristine latency is 34 cycles (see TestSingleReadLatency); the spike
	// adds 500.
	if doneAt != 534 {
		t.Errorf("spiked read completed at %d, want 534", doneAt)
	}
	if d.Stats().LatencySpikes != 1 {
		t.Errorf("spikes = %d, want 1", d.Stats().LatencySpikes)
	}
}

func TestRetriesExhaustedCounted(t *testing.T) {
	// With failure probability 1 every burst burns MaxRetries retries and is
	// then abandoned, landing anyway: RetriesExhausted counts each burst
	// once, and each burst's retries count on the channel that owns it.
	d := New(DDR3_1600x4())
	const maxRetries = 3
	if err := d.InjectFaults(&Faults{
		Seed: 5, TransientProb: 1, MaxRetries: maxRetries, RetryBackoff: 8,
	}); err != nil {
		t.Fatal(err)
	}
	d.Tick(0)
	const n = 4 // burst i maps to channel i
	for i := 0; i < n; i++ {
		d.Submit(Request{Addr: uint64(i * 64), Tag: int64(i)})
	}
	landed := map[int64]int64{}
	drain(d, 0, landed)
	if completions := len(landed); completions != n {
		t.Fatalf("only %d/%d bursts completed", completions, n)
	}
	st := d.Stats()
	if st.RetriesExhausted != n {
		t.Errorf("RetriesExhausted = %d, want %d (one per abandoned burst)", st.RetriesExhausted, n)
	}
	if st.Retries != n*maxRetries {
		t.Errorf("Retries = %d, want %d", st.Retries, n*maxRetries)
	}
	for ci, cs := range d.ChannelStats() {
		if cs.Retries != maxRetries {
			t.Errorf("channel %d counted %d retries, want %d", ci, cs.Retries, maxRetries)
		}
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() Stats {
		d := New(DDR3_1600x4())
		if err := d.InjectFaults(&Faults{Seed: 11, SpikeProb: 0.3, SpikeCycles: 100,
			TransientProb: 0.2, MaxRetries: 3, RetryBackoff: 16}); err != nil {
			t.Fatal(err)
		}
		d.Tick(0)
		next, now := 0, int64(0)
		for !d.Idle() || next < 256 {
			now++
			for next < 256 && d.Submit(Request{Addr: uint64(next * 64)}) {
				next++
			}
			d.Tick(now)
			if now > 1_000_000 {
				t.Fatal("faulted stream did not drain")
			}
		}
		return d.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
	if a.Retries == 0 || a.LatencySpikes == 0 {
		t.Errorf("fault machinery idle under nonzero probabilities: %+v", a)
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
