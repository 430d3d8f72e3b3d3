// Package dram models a multi-channel DDR3 main-memory system — the
// substitute for the DRAMSim2 configuration the paper simulates with
// (Section 4.2): 4 DDR3-1600 channels, 51.2 GB/s theoretical peak. The
// model tracks per-bank row buffers, bank timing (tRCD/tCAS/tRP), per-
// channel data-bus occupancy and FR-FCFS scheduling, which is what
// separates dense burst traffic from sparse gather/scatter traffic in the
// evaluation.
package dram

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Config describes the memory system. All timings are in fabric clock
// cycles (the simulator runs the fabric at 1 GHz, so 1 cycle = 1 ns).
type Config struct {
	Channels     int
	BanksPerChan int
	RowBytes     int // row-buffer (page) size per bank
	BurstBytes   int // data transferred per burst (BL8 x 64-bit = 64 B)

	TCAS       int // column access latency
	TRCD       int // row activate to column access
	TRP        int // precharge latency
	TFAW       int // four-activate window: at most 4 activates per TFAW
	TREFI      int // refresh interval; all banks stall TRFC every TREFI
	TRFC       int // refresh cycle time
	BurstCycle int // data-bus cycles one burst occupies

	QueueDepth int // per-channel request queue capacity
}

// maxBanks is the most banks per channel the model supports: a channel marks
// its non-empty bank queues in one 64-bit mask.
const maxBanks = 64

// maxAttempts is the most transient-failure retries a burst may take: an
// entry counts them in one byte.
const maxAttempts = math.MaxUint8

// DDR3_1600x4 returns the paper's memory system: 4 channels of DDR3-1600
// (12.8 GB/s each, 51.2 GB/s total), 8 banks per channel, 2 KB rows, 64 B
// bursts. Timings are DDR3-1600 CL11 expressed in 1 ns fabric cycles.
func DDR3_1600x4() Config {
	return Config{
		Channels:     4,
		BanksPerChan: 8,
		RowBytes:     2048,
		BurstBytes:   64,
		TCAS:         14,
		TRCD:         14,
		TRP:          14,
		TFAW:         40,
		TREFI:        7800, // 7.8 us
		TRFC:         160,  // 160 ns
		BurstCycle:   5,    // 64 B / 12.8 GB/s = 5 ns
		QueueDepth:   64,
	}
}

// Request is one burst-granularity memory request.
type Request struct {
	Addr  uint64 // byte address (aligned down to BurstBytes internally)
	Write bool
	// Tag is the owner's name for the request: Tick reports it when the
	// burst lands (data returned for reads, write committed for writes),
	// KillChannel when the burst is lost.
	Tag int64
}

// entry is a request inside the memory system: queued, in flight or
// backing off before a retry. Bank and row are decoded once at Submit: the
// scheduler compares rows every tick, and the divisions in bankRowOf
// dominated its profile. They depend only on the address and the geometry,
// never on fault remapping, so they hold for the entry's whole life. The
// fields are as narrow as their ranges allow, so an entry is 24 bytes and
// the queues that copy it stay small.
type entry struct {
	Addr uint64
	Tag  int64
	// row is the address's row in its bank, Addr / (Channels·RowBytes)
	// when a row holds whole bursts: below 2^31 for every address below
	// 2^31·Channels·RowBytes (16 TiB under DDR3_1600x4). The simulator lays
	// its buffers out from 1 MiB up, each of them allocated on the host.
	row int32
	// bank is row mod BanksPerChan, below maxBanks (New enforces it).
	bank uint8
	// attempts counts transient-failure retries so far, at most
	// Faults.MaxRetries, which InjectFaults holds to maxAttempts.
	attempts uint8
	Write    bool
}

// timed is an entry bound to a cycle: when it lands while in flight, when
// it resubmits while backing off. seq is the global order in which bursts
// were scheduled; it breaks same-cycle ties between channels.
type timed struct {
	entry
	at  int64
	seq uint64
}

// fifo holds one channel's scheduled completions in landing order. A FIFO
// is enough because the channel's data bus serializes its bursts: schedule
// sets done = max(start+latency, busFree) + BurstCycle and then busFree =
// done, and refresh only pushes busFree later, so each channel schedules
// its completions in non-decreasing cycle order.
type fifo struct {
	buf  []timed
	head int
}

func (q *fifo) len() int { return len(q.buf) - q.head }

// items returns the scheduled completions in landing order.
func (q *fifo) items() []timed { return q.buf[q.head:] }

func (q *fifo) front() *timed { return &q.buf[q.head] }

func (q *fifo) push(t timed) {
	// Slide the live entries down once at least half the buffer is spent,
	// so a steady stream reuses one buffer.
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, t)
}

func (q *fifo) pop() timed {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return t
}

// remove deletes, in order, the entries gone reports and appends them to
// out.
func (q *fifo) remove(gone func(*timed) bool, out []timed) []timed {
	live := q.items()
	kept := live[:0]
	for _, t := range live {
		if gone(&t) {
			out = append(out, t)
		} else {
			kept = append(kept, t)
		}
	}
	q.buf = q.buf[:q.head+len(kept)]
	return out
}

// queued is an entry waiting in its bank's queue. stamp is its arrival
// number on the channel: merged by stamp, the bank queues give back the
// channel's one arrival-ordered queue, by which FR-FCFS ages requests.
type queued struct {
	entry
	stamp uint64
}

// bankQueue holds one bank's waiting requests in arrival order: the live
// ones are buf[head:].
type bankQueue struct {
	buf  []queued
	head int
}

func (q *bankQueue) items() []queued { return q.buf[q.head:] }

func (q *bankQueue) push(r queued) {
	// As fifo.push: slide down once half the buffer is spent.
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, r)
}

// remove deletes and returns the i-th live request, sliding whichever side
// of it is shorter; the rest keep their order. It reports whether the queue
// is now empty.
func (q *bankQueue) remove(i int) (entry, bool) {
	live := q.buf[q.head:]
	e := live[i].entry
	if i == 0 {
		q.head++
	} else if i < len(live)-1-i {
		copy(live[1:], live[:i])
		q.head++
	} else {
		copy(live[i:], live[i+1:])
		q.buf = q.buf[:len(q.buf)-1]
	}
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
		return e, true
	}
	return e, false
}

type bank struct {
	openRow int32 // -1 = closed
	readyAt int64 // earliest cycle the bank can accept a command
	queue   bankQueue
}

// channel holds its queued requests in one FIFO per bank. queued counts
// them, waiting marks the banks whose FIFO is non-empty, and stamps is the
// next arrival stamp. wake is the first cycle a bank in waiting is ready
// (math.MaxInt64 with nothing queued): before it, schedule has nothing to
// pick. Every change to waiting or to a waiting bank's readyAt updates it.
type channel struct {
	banks   []bank
	queued  int
	waiting uint64
	stamps  uint64
	wake    int64
	flights fifo     // scheduled completions
	busFree int64    // earliest cycle the data bus is free
	acts    [4]int64 // issue times of the last four row activates (tFAW)
}

// push appends e to its bank's FIFO with the next arrival stamp.
func (ch *channel) push(e entry) {
	bk := &ch.banks[e.bank]
	bk.queue.push(queued{entry: e, stamp: ch.stamps})
	ch.stamps++
	ch.waiting |= 1 << e.bank
	ch.queued++
	ch.wake = min(ch.wake, bk.readyAt)
}

// earliestReady returns the first cycle a bank holding queued requests is
// ready, math.MaxInt64 when none holds any.
func (ch *channel) earliestReady() int64 {
	at := int64(math.MaxInt64)
	for m := ch.waiting; m != 0; m &= m - 1 {
		at = min(at, ch.banks[bits.TrailingZeros64(m)].readyAt)
	}
	return at
}

// arrivals returns the queued requests in arrival order: the bank FIFOs
// merged by stamp.
func (ch *channel) arrivals() []queued {
	var out []queued
	for b := range ch.banks {
		out = append(out, ch.banks[b].queue.items()...)
	}
	slices.SortFunc(out, func(a, b queued) int { return cmp.Compare(a.stamp, b.stamp) })
	return out
}

// clearQueues empties every bank FIFO and restarts the arrival stamps.
func (ch *channel) clearQueues() {
	for b := range ch.banks {
		ch.banks[b].queue = bankQueue{buf: ch.banks[b].queue.buf[:0]}
	}
	ch.queued, ch.waiting, ch.stamps, ch.wake = 0, 0, 0, math.MaxInt64
}

// pick is FR-FCFS over the bank FIFOs: among the ready banks, the oldest
// request that hits its bank's open row, else the oldest request at the
// head of a ready bank. It returns the bank and the position in its FIFO,
// or b = -1 when no bank with queued work is ready. A FIFO holds its bank's
// requests in arrival order, so each bank's scan stops at its first hit, or
// at the first request younger than the best hit found so far.
func (ch *channel) pick(now int64) (b, i int) {
	b = -1
	hit := false
	var stamp uint64
	for m := ch.waiting; m != 0; m &= m - 1 {
		bi := bits.TrailingZeros64(m)
		bk := &ch.banks[bi]
		if bk.readyAt > now {
			continue
		}
		q := bk.queue.items()
		for qi := range q {
			if hit && q[qi].stamp > stamp {
				break
			}
			if q[qi].row == bk.openRow {
				b, i, stamp, hit = bi, qi, q[qi].stamp, true
				break
			}
		}
		if !hit && (b < 0 || q[0].stamp < stamp) {
			b, i, stamp = bi, 0, q[0].stamp
		}
	}
	return b, i
}

// Stats holds the run totals: bytes moved, and the fault model's activity.
// Everything else is counted per channel, in ChanStats.
type Stats struct {
	BytesRead    int64
	BytesWritten int64

	// Fault-injection activity (all zero when no faults are armed).
	Retries          int64 // transient-failure retries issued
	RetriesExhausted int64 // bursts that hit MaxRetries and completed anyway
	LatencySpikes    int64 // bursts delayed by an injected latency spike
}

// ChanStats is one channel's activity: the only place the memory system
// counts reads, writes, row outcomes and queue peaks. The observability
// layer reads it to show bank-conflict and row-hit imbalance across channels
// (e.g. after a kill-chan remap piles two channels' traffic onto one).
type ChanStats struct {
	Reads, Writes int64
	RowHits       int64
	RowMisses     int64 // closed-row activations
	RowConflicts  int64 // open-row mismatch (precharge + activate)
	Retries       int64
	MaxQueueOcc   int
}

// DRAM is the memory system instance.
type DRAM struct {
	cfg      Config
	channels []channel
	// seq numbers scheduled bursts. Completions fire in (cycle, seq) order:
	// same-cycle landings on different channels fire in the order they were
	// scheduled, which fixes the fault PRNG's draw sequence.
	seq uint64
	// head is the channel holding the next completion to fire, -1 when
	// nothing is in flight. schedule moves it when a push into an empty
	// flight queue lands strictly earlier (its seq is the newest, so it
	// loses every tie); a pop and a channel kill rescan (findHead).
	head        int
	landed      []int64 // tags of the bursts the last Tick landed
	stats       Stats
	chanStats   []ChanStats
	nextRefresh int64

	// Fault injection (nil when the memory system is healthy).
	faults  *Faults
	rng     prng
	healthy []int   // channels accepting traffic under the fault plan
	retryq  []timed // bursts awaiting retry after transient failures
}

// New creates a memory system. It panics if cfg has more than 64 banks per
// channel.
func New(cfg Config) *DRAM {
	if cfg.BanksPerChan > maxBanks {
		panic(fmt.Sprintf("dram: %d banks per channel, the model supports at most %d", cfg.BanksPerChan, maxBanks))
	}
	d := &DRAM{cfg: cfg, channels: make([]channel, cfg.Channels), head: -1,
		chanStats: make([]ChanStats, cfg.Channels), nextRefresh: int64(cfg.TREFI)}
	for i := range d.channels {
		d.channels[i].wake = math.MaxInt64
		d.channels[i].banks = make([]bank, cfg.BanksPerChan)
		for b := range d.channels[i].banks {
			d.channels[i].banks[b].openRow = -1
		}
		for a := range d.channels[i].acts {
			d.channels[i].acts[a] = -int64(cfg.TFAW)
		}
	}
	return d
}

// Delay moves the refresh schedule cycles later: the memory system idles
// while the fabric around it stalls for a reconfiguration.
func (d *DRAM) Delay(cycles int64) { d.nextRefresh += cycles }

// Stats returns a snapshot of activity counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ChannelStats returns a copy of the per-channel activity counters,
// indexed by channel.
func (d *DRAM) ChannelStats() []ChanStats {
	return append([]ChanStats(nil), d.chanStats...)
}

// channelOf maps an address to a channel: burst-granularity interleaving
// spreads consecutive bursts across channels. Under a fault plan, traffic
// owned by a downed channel remaps onto the healthy ones (-1 if none).
func (d *DRAM) channelOf(addr uint64) int {
	if d.faults != nil {
		return d.remapChannel(addr)
	}
	return int(addr/uint64(d.cfg.BurstBytes)) % d.cfg.Channels
}

// bankRowOf maps an address to (bank, row) within its channel.
func (d *DRAM) bankRowOf(addr uint64) (uint8, int32) {
	block := addr / uint64(d.cfg.BurstBytes) / uint64(d.cfg.Channels)
	row := int32(block * uint64(d.cfg.BurstBytes) / uint64(d.cfg.RowBytes))
	return uint8(int(row) % d.cfg.BanksPerChan), row
}

// Submit enqueues a request; it returns false (and drops the request) if
// no healthy channel owns the address or the owning channel's queue is full
// — callers must retry.
func (d *DRAM) Submit(r Request) bool { return d.SubmitTo(d.channelOf(r.Addr), r) }

// SubmitTo is Submit for a request whose channel ci the caller decoded
// with ChannelOf, or took from Accepts, since the last KillChannel (the
// only call that remaps addresses), so the address is not decoded again.
func (d *DRAM) SubmitTo(ci int, r Request) bool {
	if ci < 0 || d.channels[ci].queued >= d.cfg.QueueDepth {
		return false
	}
	b, row := d.bankRowOf(r.Addr)
	d.enqueue(ci, entry{Addr: r.Addr, Tag: r.Tag, row: row, bank: b, Write: r.Write})
	return true
}

// enqueue queues an accepted entry on channel ci.
func (d *DRAM) enqueue(ci int, e entry) {
	ch := &d.channels[ci]
	ch.push(e)
	if ch.queued > d.chanStats[ci].MaxQueueOcc {
		d.chanStats[ci].MaxQueueOcc = ch.queued
	}
}

// findHead rescans the channels for the next completion to fire — the
// earliest cycle, ties to the earliest scheduled — and caches its channel
// in head (-1 when nothing is in flight).
func (d *DRAM) findHead() {
	d.head = -1
	var at int64
	var seq uint64
	for ci := range d.channels {
		q := &d.channels[ci].flights
		if q.len() == 0 {
			continue
		}
		if f := q.front(); d.head < 0 || f.at < at || f.at == at && f.seq < seq {
			d.head, at, seq = ci, f.at, f.seq
		}
	}
}

// Tick advances the memory system to cycle now: lands due bursts, then
// schedules one command per idle channel (FR-FCFS: row hits first, then
// oldest). It returns the tags of the bursts that landed, in firing order;
// the slice is reused and valid until the next Tick.
func (d *DRAM) Tick(now int64) []int64 {
	d.landed = d.landed[:0]
	// Land completions; bursts hit by a transient fault re-queue instead.
	for d.head >= 0 && d.channels[d.head].flights.front().at <= now {
		ci := d.head
		f := d.channels[ci].flights.pop()
		d.findHead()
		if !d.maybeRetry(ci, f.entry, now) {
			d.finish(ci, &f.entry)
			d.landed = append(d.landed, f.Tag)
		}
	}
	d.drainRetries(now)

	if d.cfg.TREFI > 0 && now >= d.nextRefresh {
		d.nextRefresh = now + int64(d.cfg.TREFI)
		d.refresh(now)
	}

	for ci := range d.channels {
		d.schedule(ci, now)
	}
	return d.landed
}

// refresh runs the periodic refresh at cycle now: each channel's banks are
// unavailable for tRFC and rows close.
func (d *DRAM) refresh(now int64) {
	for ci := range d.channels {
		ch := &d.channels[ci]
		// The refresh occupies the whole channel for tRFC: already-reserved
		// transfers push out and banks reopen afterwards.
		if ch.busFree < now {
			ch.busFree = now
		}
		ch.busFree += int64(d.cfg.TRFC)
		until := ch.busFree
		for b := range ch.banks {
			if ch.banks[b].readyAt < until {
				ch.banks[b].readyAt = until
			}
			ch.banks[b].openRow = -1
		}
		ch.wake = max(ch.wake, until)
	}
}

// finish lands a burst that channel ci served.
func (d *DRAM) finish(ci int, r *entry) {
	if r.Write {
		d.stats.BytesWritten += int64(d.cfg.BurstBytes)
		d.chanStats[ci].Writes++
	} else {
		d.stats.BytesRead += int64(d.cfg.BurstBytes)
		d.chanStats[ci].Reads++
	}
}

func (d *DRAM) schedule(ci int, now int64) {
	ch := &d.channels[ci]
	if now < ch.wake {
		return
	}
	b, i := ch.pick(now)
	if b < 0 {
		return
	}
	bk := &ch.banks[b]
	r, empty := bk.queue.remove(i)
	if empty {
		ch.waiting &^= 1 << b
	}
	ch.queued--

	var accessLatency int64
	switch {
	case bk.openRow == r.row:
		d.chanStats[ci].RowHits++
		accessLatency = int64(d.cfg.TCAS)
	case bk.openRow == -1:
		d.chanStats[ci].RowMisses++
		accessLatency = int64(d.cfg.TRCD + d.cfg.TCAS)
	default:
		d.chanStats[ci].RowConflicts++
		accessLatency = int64(d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS)
	}
	bk.openRow = r.row
	start := now
	if bk.readyAt > start {
		start = bk.readyAt
	}
	if accessLatency > int64(d.cfg.TCAS) && d.cfg.TFAW > 0 {
		// Row activate: respect the four-activate window.
		if w := ch.acts[0] + int64(d.cfg.TFAW); w > start {
			start = w
		}
		copy(ch.acts[:], ch.acts[1:])
		ch.acts[3] = start
	}
	accessLatency += d.spikeLatency()
	dataAt := start + accessLatency
	if dataAt < ch.busFree {
		dataAt = ch.busFree
	}
	done := dataAt + int64(d.cfg.BurstCycle)
	ch.busFree = dataAt + int64(d.cfg.BurstCycle)
	// Column commands pipeline: the bank accepts the next command after
	// tCCD (~ one burst) plus any activate/precharge work, while this
	// request's data is still in flight.
	bk.readyAt = start + int64(d.cfg.BurstCycle) + (accessLatency - int64(d.cfg.TCAS))
	ch.wake = ch.earliestReady()
	ch.flights.push(timed{entry: r, at: done, seq: d.seq})
	d.seq++
	if ch.flights.len() == 1 && (d.head < 0 || done < d.channels[d.head].flights.front().at) {
		d.head = ci
	}
}

// Idle reports whether no requests are queued or in flight.
func (d *DRAM) Idle() bool {
	if len(d.retryq) > 0 {
		return false
	}
	for i := range d.channels {
		if d.channels[i].queued > 0 || d.channels[i].flights.len() > 0 {
			return false
		}
	}
	return true
}

// schedulingOrder orders scheduled completions the way they were scheduled.
func schedulingOrder(a, b timed) int { return cmp.Compare(a.seq, b.seq) }

// NextEventAt returns the earliest cycle strictly after now at which a Tick
// could change memory-system state: a pending completion firing, a retry
// backoff elapsing (a due-but-blocked retry forces now+1: it tries to
// resubmit every tick and gets in the first tick its channel has room), the
// next refresh, or a channel whose queued work finds a ready bank. Every cycle
// strictly between now and the returned value is provably a Tick no-op, so
// the event-driven engine may skip straight to it. Returns -1 when no
// event is scheduled (the memory system is idle and refresh is disabled).
func (d *DRAM) NextEventAt(now int64) int64 {
	next := int64(-1)
	consider := func(v int64) {
		if v <= now {
			v = now + 1
		}
		if next < 0 || v < next {
			next = v
		}
	}
	// now+1 is the floor; once a candidate hits it, nothing can be earlier,
	// so the remaining (and costlier) scans are skipped.
	if d.head >= 0 {
		consider(d.channels[d.head].flights.front().at)
	}
	for _, c := range d.retryq {
		consider(c.at)
	}
	if d.cfg.TREFI > 0 {
		consider(d.nextRefresh)
	}
	for ci := range d.channels {
		if next == now+1 {
			return next
		}
		// FR-FCFS can issue a command the first cycle a bank holding queued
		// requests is ready; before that every schedule() pass picks nothing.
		if ch := &d.channels[ci]; ch.queued > 0 {
			consider(ch.wake)
		}
	}
	return next
}

// Accepts probes whether Submit would succeed for addr right now, with no
// side effects. It returns the (fault-remapped) channel owning addr, -1
// when every candidate channel is down, and whether that channel's queue
// has room.
func (d *DRAM) Accepts(addr uint64) (ci int, ok bool) {
	ci = d.channelOf(addr)
	return ci, ci >= 0 && d.channels[ci].queued < d.cfg.QueueDepth
}

// ChannelOf returns the (fault-remapped) channel owning addr, -1 when every
// candidate channel is down. The answer holds until the next KillChannel.
func (d *DRAM) ChannelOf(addr uint64) int { return d.channelOf(addr) }

// QueueSlack returns the free request-queue slots on channel ci.
func (d *DRAM) QueueSlack(ci int) int {
	if ci < 0 || ci >= len(d.channels) {
		return 0
	}
	return d.cfg.QueueDepth - d.channels[ci].queued
}

// EventCount returns scheduled future events (pending completions plus
// retrying bursts) — the event-queue depth the observability gauge samples.
func (d *DRAM) EventCount() int {
	n := len(d.retryq)
	for i := range d.channels {
		n += d.channels[i].flights.len()
	}
	return n
}

func (c Config) String() string {
	return fmt.Sprintf("%d ch x %d banks, %dB rows, %dB bursts, CAS/RCD/RP %d/%d/%d",
		c.Channels, c.BanksPerChan, c.RowBytes, c.BurstBytes, c.TCAS, c.TRCD, c.TRP)
}
