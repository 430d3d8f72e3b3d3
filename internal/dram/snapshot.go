package dram

import (
	"fmt"
	"slices"
)

// This file supports mid-run checkpointing: the memory system's entire
// dynamic state — bank row buffers, bus reservations, refresh phase, queued
// and in-flight requests, the retry queue, counters and the fault PRNG — can
// be captured into a MemState and later restored into a fresh DRAM, so a
// resumed simulation is cycle-identical to one that never stopped.

// prng is a serializable splitmix64 generator. The fault model uses it
// instead of math/rand so its exact position in the draw sequence survives a
// checkpoint: state is one word, restored verbatim.
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

// ReqState is the serializable form of one queued or in-flight request. Tag
// carries the caller's identity for the request (the simulator stores the
// owning activity id and burst index), which Tick reports when the restored
// burst lands.
type ReqState struct {
	Addr     uint64
	Write    bool
	Attempts int32
	Tag      int64
	At       int64 // completion/retry cycle; unused for queued requests
}

// BankState is one bank's row-buffer and command-timing state.
type BankState struct {
	OpenRow int64
	ReadyAt int64
}

// MemState is a complete snapshot of the memory system's dynamic state.
type MemState struct {
	NextRefresh int64
	RNG         uint64
	Stats       Stats
	Chans       []ChanStats // per-channel counters, indexed by channel

	Banks   []BankState // Channels * BanksPerChan, channel-major
	BusFree []int64     // per channel
	Acts    []int64     // Channels * 4 recent activate times, channel-major

	Queued  [][]ReqState // per channel, arrival order
	Pending []ReqState   // scheduled completions, in landing order; At = finish cycle
	Retry   []ReqState   // retry queue, in order; At = resubmit cycle
}

func (e *entry) state(at int64) ReqState {
	return ReqState{Addr: e.Addr, Write: e.Write, Attempts: e.attempts, Tag: e.Tag, At: at}
}

func (d *DRAM) revive(rs ReqState) entry {
	return d.newEntry(Request{Addr: rs.Addr, Write: rs.Write, Tag: rs.Tag}, rs.Attempts)
}

// Snapshot captures the memory system's dynamic state. The snapshot is
// deterministic: two identical systems produce identical MemStates.
func (d *DRAM) Snapshot() *MemState {
	st := &MemState{
		NextRefresh: d.nextRefresh,
		RNG:         d.rng.state,
		Stats:       d.stats,
		Chans:       append([]ChanStats(nil), d.chanStats...),
		Queued:      make([][]ReqState, len(d.channels)),
	}
	var pending []timed
	for ci := range d.channels {
		ch := &d.channels[ci]
		for _, bk := range ch.banks {
			st.Banks = append(st.Banks, BankState{OpenRow: bk.openRow, ReadyAt: bk.readyAt})
		}
		st.BusFree = append(st.BusFree, ch.busFree)
		st.Acts = append(st.Acts, ch.acts[:]...)
		for _, q := range ch.arrivals() {
			st.Queued[ci] = append(st.Queued[ci], q.state(0))
		}
		pending = append(pending, ch.flights.items()...)
	}
	slices.SortFunc(pending, landingOrder)
	for _, t := range pending {
		st.Pending = append(st.Pending, t.state(t.at))
	}
	for _, t := range d.retryq {
		st.Retry = append(st.Retry, t.state(t.at))
	}
	return st
}

// Restore loads a snapshot into a fresh memory system of the same
// configuration (and, if faults were armed when the snapshot was taken, with
// InjectFaults already applied). Queued requests are stamped in list order,
// so they keep their arrival order. Each pending completion goes back on the
// channel that owns its address, in list order. A list that is out of cycle
// order for a channel, or that lands a burst after its channel's bus frees,
// is rejected: the channel would land its bursts out of order.
func (d *DRAM) Restore(st *MemState) error {
	if want := d.cfg.Channels * d.cfg.BanksPerChan; len(st.Banks) != want {
		return fmt.Errorf("dram: snapshot has %d bank states, config wants %d", len(st.Banks), want)
	}
	if len(st.BusFree) != d.cfg.Channels || len(st.Acts) != 4*d.cfg.Channels {
		return fmt.Errorf("dram: snapshot channel state (%d bus, %d acts) does not fit %d channels",
			len(st.BusFree), len(st.Acts), d.cfg.Channels)
	}
	if len(st.Queued) != d.cfg.Channels {
		return fmt.Errorf("dram: snapshot has %d queues, config wants %d", len(st.Queued), d.cfg.Channels)
	}
	if len(st.Chans) != d.cfg.Channels {
		return fmt.Errorf("dram: snapshot has %d channel counter sets, config wants %d", len(st.Chans), d.cfg.Channels)
	}
	d.nextRefresh = st.NextRefresh
	d.rng.state = st.RNG
	d.stats = st.Stats
	copy(d.chanStats, st.Chans)
	for ci := range d.channels {
		ch := &d.channels[ci]
		for b := range ch.banks {
			bs := st.Banks[ci*d.cfg.BanksPerChan+b]
			ch.banks[b] = bank{openRow: bs.OpenRow, readyAt: bs.ReadyAt}
		}
		ch.busFree = st.BusFree[ci]
		copy(ch.acts[:], st.Acts[ci*4:ci*4+4])
		ch.clearQueues()
		for _, rs := range st.Queued[ci] {
			ch.push(d.revive(rs))
		}
		ch.flights = fifo{}
	}
	d.seq = 0
	for _, rs := range st.Pending {
		ci := d.channelOf(rs.Addr)
		if ci < 0 {
			return fmt.Errorf("dram: pending request tag %d at 0x%x has no healthy channel", rs.Tag, rs.Addr)
		}
		// Every later burst on the channel lands after its bus frees, so
		// each channel's completions must come in cycle order, none after
		// that.
		q := &d.channels[ci].flights
		if q.len() > 0 && q.back().at > rs.At {
			return fmt.Errorf("dram: pending request tag %d lands at cycle %d, before cycle %d already pending on channel %d",
				rs.Tag, rs.At, q.back().at, ci)
		}
		if rs.At > d.channels[ci].busFree {
			return fmt.Errorf("dram: pending request tag %d lands at cycle %d, after channel %d's bus frees at %d",
				rs.Tag, rs.At, ci, d.channels[ci].busFree)
		}
		q.push(timed{entry: d.revive(rs), at: rs.At, seq: d.seq})
		d.seq++
	}
	d.retryq = d.retryq[:0]
	for _, rs := range st.Retry {
		d.retryq = append(d.retryq, timed{entry: d.revive(rs), at: rs.At})
	}
	return nil
}
