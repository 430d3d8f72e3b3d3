package dram

import (
	"fmt"
	"slices"
)

// Faults is the injectable memory-system fault configuration. All draws come
// from a private PRNG seeded with Seed, and the model is single-threaded, so
// a fixed seed yields identical behaviour across runs. A nil *Faults (or
// never calling InjectFaults) leaves the model byte-identical to the
// unfaulted one: no PRNG is consulted on that path.
type Faults struct {
	Seed int64

	// SpikeProb is the per-scheduled-burst probability of a latency spike
	// of SpikeCycles extra cycles (models degraded cells / thermal
	// throttling on a channel).
	SpikeProb   float64
	SpikeCycles int

	// TransientProb is the per-completed-burst probability of a transient
	// failure (models a correctable burst error). Failed bursts retry with
	// exponential backoff: RetryBackoff << attempt cycles, at most
	// MaxRetries times; a burst that exhausts its retries completes anyway
	// (higher-level ECC recovery) and is counted in Stats.RetriesExhausted.
	// With TransientProb set, MaxRetries is at most 255: InjectFaults
	// rejects a larger one.
	TransientProb float64
	MaxRetries    int
	RetryBackoff  int

	// Down marks channels that are offline. Their traffic remaps
	// deterministically onto the healthy channels; if every channel is
	// down, Submit rejects all requests (the simulator's watchdog turns
	// that into a diagnostic abort instead of a hang).
	Down []bool
}

// prng is a splitmix64 generator: one word of state, so the fault model's
// draws depend on nothing but the seed and the order of the draws.
type prng struct{ state uint64 }

func newPRNG(seed int64) prng { return prng{state: uint64(seed)} }

// Float64 returns the next draw in [0, 1).
func (p *prng) Float64() float64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// InjectFaults arms the fault model. Must be called before the first Submit.
func (d *DRAM) InjectFaults(f *Faults) error {
	if f == nil {
		d.faults = nil
		return nil
	}
	if len(f.Down) > d.cfg.Channels {
		return fmt.Errorf("dram: fault plan marks %d channels, memory system has %d", len(f.Down), d.cfg.Channels)
	}
	if f.TransientProb > 0 && f.MaxRetries > maxAttempts {
		return fmt.Errorf("dram: fault plan allows %d retries per burst, the model counts at most %d", f.MaxRetries, maxAttempts)
	}
	d.faults = f
	d.rng = newPRNG(f.Seed)
	d.healthy = d.healthy[:0]
	for c := 0; c < d.cfg.Channels; c++ {
		if c >= len(f.Down) || !f.Down[c] {
			d.healthy = append(d.healthy, c)
		}
	}
	return nil
}

// route returns the channel owning a burst whose channel before the remap
// is home and whose burst number mod the count of healthy channels is
// spare: home while it is up, else the healthy channel spare picks, which
// keeps the interleave pattern, or -1 when none is healthy.
func (d *DRAM) route(home, spare int32) int {
	switch {
	case !d.down(home):
		return int(home)
	case len(d.healthy) == 0:
		return -1
	}
	return d.healthy[spare]
}

// down reports whether the fault plan has taken channel ch offline.
func (d *DRAM) down(ch int32) bool {
	f := d.faults
	return f != nil && int(ch) < len(f.Down) && f.Down[ch]
}

// spikeLatency rolls the latency-spike die for one scheduled burst.
func (d *DRAM) spikeLatency() int64 {
	f := d.faults
	if f == nil || f.SpikeProb <= 0 {
		return 0
	}
	if d.rng.Float64() < f.SpikeProb {
		d.stats.LatencySpikes++
		return int64(f.SpikeCycles)
	}
	return 0
}

// maybeRetry rolls the transient-failure die for a burst that channel ci
// completed. If the burst must retry, it is re-queued after an exponential
// backoff and true is returned; the caller must not land it.
func (d *DRAM) maybeRetry(ci int, e entry, now int64) bool {
	f := d.faults
	if f == nil || f.TransientProb <= 0 {
		return false
	}
	if d.rng.Float64() >= f.TransientProb {
		return false
	}
	if int(e.attempts) >= f.MaxRetries {
		d.stats.RetriesExhausted++
		return false
	}
	e.attempts++
	d.stats.Retries++
	d.chanStats[ci].Retries++
	backoff := int64(f.RetryBackoff) << (e.attempts - 1)
	d.retryq = append(d.retryq, timed{entry: e, at: now + backoff})
	return true
}

// drainRetries re-submits bursts whose backoff has elapsed; bursts that find
// their channel queue full stay queued for the next tick.
func (d *DRAM) drainRetries(now int64) {
	if len(d.retryq) == 0 {
		return
	}
	kept := d.retryq[:0]
	for _, c := range d.retryq {
		if c.at > now || !d.resubmit(c.entry) {
			kept = append(kept, c)
		}
	}
	d.retryq = kept
}

// resubmit enqueues a retried entry, attempt count and all, if its channel
// has room.
func (d *DRAM) resubmit(e entry) bool {
	ci, ok := d.Accepts(e.Addr)
	if ok {
		d.enqueue(ci, e)
	}
	return ok
}

// KillChannel takes channel c offline mid-run. Requests already queued,
// scheduled, or awaiting retry on c are dropped and their tags reported
// through lost — queued first, then in-flight in scheduling order, then
// the retry queue (their data is gone; the owner must reissue them); future
// traffic remaps onto the surviving channels. Returns the number of dropped
// requests.
func (d *DRAM) KillChannel(c int, lost func(tag int64)) (int, error) {
	if c < 0 || c >= d.cfg.Channels {
		return 0, fmt.Errorf("dram: kill-chan %d out of range (memory system has %d channels)", c, d.cfg.Channels)
	}
	if d.faults == nil {
		d.faults = &Faults{}
	}
	f := d.faults
	if len(f.Down) < d.cfg.Channels {
		down := make([]bool, d.cfg.Channels)
		copy(down, f.Down)
		f.Down = down
	}
	if f.Down[c] {
		return 0, fmt.Errorf("dram: channel %d is already down", c)
	}
	// Record each in-flight request's owning channel BEFORE marking c down:
	// remapChannel answers differently afterwards, and a request in c's
	// queue belongs to c regardless of which channel its address hashes to.
	dropped := 0
	drop := func(tag int64) {
		dropped++
		if lost != nil {
			lost(tag)
		}
	}
	ch := &d.channels[c]
	for _, q := range ch.arrivals() {
		drop(q.Tag)
	}
	ch.clearQueues()
	owned := func(t *timed) bool { return d.channelOf(t.Addr) == c }
	var gone []timed
	for ci := range d.channels {
		gone = d.channels[ci].flights.remove(owned, gone)
	}
	d.findHead()
	slices.SortFunc(gone, schedulingOrder)
	for _, t := range gone {
		drop(t.Tag)
	}
	keptR := d.retryq[:0]
	for _, t := range d.retryq {
		if owned(&t) {
			drop(t.Tag)
		} else {
			keptR = append(keptR, t)
		}
	}
	d.retryq = keptR
	f.Down[c] = true
	d.healthy = d.healthy[:0]
	for i := 0; i < d.cfg.Channels; i++ {
		if !f.Down[i] {
			d.healthy = append(d.healthy, i)
		}
	}
	return dropped, nil
}

// QueueOccupancy returns the current per-channel request-queue depths
// (diagnostics for the simulator's watchdog dump).
func (d *DRAM) QueueOccupancy() []int {
	out := make([]int, len(d.channels))
	for i := range d.channels {
		out[i] = d.channels[i].queued
	}
	return out
}
