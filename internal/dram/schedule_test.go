package dram

import (
	"math/rand"
	"reflect"
	"testing"
)

// These tests pin which queued request FR-FCFS schedules. The bank FIFOs
// must pick exactly what a linear scan over one arrival-ordered queue picks:
// the engine's cycle counts and the fault PRNG's draws follow from it.

// linearPick is the reference scheduler: one pass over the channel's queue
// in arrival order, taking the first request whose bank is ready and whose
// row is open, else the first request whose bank is ready. It returns the
// index in queue, or -1 when no queued request's bank is ready.
func linearPick(queue []entry, banks []bank, now int64) int {
	pick, oldestReady := -1, -1
	for i := range queue {
		r := &queue[i]
		bk := &banks[r.bank]
		if bk.readyAt > now {
			continue
		}
		if bk.openRow == r.row {
			pick = i
			break
		}
		if oldestReady < 0 {
			oldestReady = i
		}
	}
	if pick < 0 {
		pick = oldestReady
	}
	return pick
}

// quietConfig is one channel with refresh off, so a test controls every bank
// and nothing but the queued work schedules events.
func quietConfig() Config {
	cfg := DDR3_1600x4()
	cfg.Channels = 1
	cfg.TREFI = 0
	return cfg
}

// queueOn enqueues a request for (bank, row) on channel 0, tagged tag.
func queueOn(d *DRAM, b int, row int64, tag int64) entry {
	e := entry{Tag: tag, row: int32(row), bank: uint8(b)}
	d.enqueue(0, e)
	return e
}

// picked returns the tag of the request the bank FIFOs pick, -1 for none.
func picked(ch *channel, now int64) int64 {
	b, i := ch.pick(now)
	if b < 0 {
		return -1
	}
	return ch.banks[b].queue.items()[i].Tag
}

// refNextEventAt is NextEventAt with refresh off and no retries, over the
// reference queue: the earliest cycle after now at which a burst lands or a
// queued request's bank is ready.
func refNextEventAt(ch *channel, queue []entry, now int64) int64 {
	next := int64(-1)
	consider := func(v int64) {
		if v = max(v, now+1); next < 0 || v < next {
			next = v
		}
	}
	if ch.flights.len() > 0 {
		consider(ch.flights.front().at)
	}
	for _, r := range queue {
		consider(ch.banks[r.bank].readyAt)
	}
	return next
}

func tagsOf(queue []entry) []int64 {
	tags := make([]int64, len(queue))
	for i, r := range queue {
		tags[i] = r.Tag
	}
	return tags
}

// TestPickMatchesLinearScan drives random channel states through a run of
// schedules, arrivals and refreshes. Queues hold 0 to 64 requests, spread
// over anything from one bank to all eight; rows repeat often enough to hit;
// open rows and ready cycles are random, and now falls on both sides of
// them. At every step the bank FIFOs must pick the reference's request and
// agree on the next event, and the snapshot and a channel kill must list the
// queue in arrival order.
func TestPickMatchesLinearScan(t *testing.T) {
	cfg := quietConfig()
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(cfg)
		ch := &d.channels[0]
		for b := range ch.banks {
			ch.banks[b].readyAt = int64(rng.Intn(100))
			if rng.Intn(4) > 0 {
				ch.banks[b].openRow = int32(rng.Intn(4))
			}
		}
		spread := 1 + rng.Intn(cfg.BanksPerChan) // banks in use
		rows := 1 + rng.Intn(6)
		tag := int64(0)
		var ref []entry
		enqueue := func(n int) {
			for ; n > 0 && len(ref) < cfg.QueueDepth; n-- {
				ref = append(ref, queueOn(d, rng.Intn(spread), int64(rng.Intn(rows)), tag))
				tag++
			}
		}
		enqueue(rng.Intn(cfg.QueueDepth + 1))
		now := int64(rng.Intn(100))
		for step := 0; step < 3*cfg.QueueDepth; step++ {
			want := linearPick(ref, ch.banks, now)
			wantTag := int64(-1)
			if want >= 0 {
				wantTag = ref[want].Tag
			}
			if got := picked(ch, now); got != wantTag {
				t.Fatalf("seed %d step %d: picked tag %d, linear scan picks %d", seed, step, got, wantTag)
			}
			if got, want := d.NextEventAt(now), refNextEventAt(ch, ref, now); got != want {
				t.Fatalf("seed %d step %d: NextEventAt(%d) = %d, want %d", seed, step, now, got, want)
			}
			if want >= 0 {
				d.schedule(0, now)
				ref = append(ref[:want], ref[want+1:]...)
			}
			if ch.queued != len(ref) {
				t.Fatalf("seed %d step %d: %d queued, want %d", seed, step, ch.queued, len(ref))
			}
			if rng.Intn(4) == 0 {
				enqueue(rng.Intn(8))
			}
			if rng.Intn(16) == 0 {
				d.refresh(now)
			}
			now += int64(rng.Intn(12))
		}
		var lost []int64
		if _, err := d.KillChannel(0, func(tag int64) { lost = append(lost, tag) }); err != nil {
			t.Fatal(err)
		}
		if len(lost) < len(ref) || !reflect.DeepEqual(lost[:len(ref)], tagsOf(ref)) {
			t.Fatalf("seed %d: lost %v, want the queue first, in arrival order %v", seed, lost, tagsOf(ref))
		}
	}
}

func TestYoungerRowHitBeatsOlderMiss(t *testing.T) {
	for _, sameBank := range []bool{false, true} {
		d := New(quietConfig())
		ch := &d.channels[0]
		ch.banks[0].openRow, ch.banks[1].openRow = 5, 7
		missBank := 1
		if sameBank {
			missBank = 0
		}
		queueOn(d, missBank, 9, 'M') // older, a row miss
		queueOn(d, 0, 5, 'H')        // younger, a row hit
		if got := picked(ch, 0); got != 'H' {
			t.Errorf("same bank %v: picked %q, want the row hit H", sameBank, rune(got))
		}
		d.schedule(0, 0)
		if ch.queued != 1 || picked(ch, 100) != 'M' {
			t.Errorf("same bank %v: after the hit, %d queued and %q next, want M alone",
				sameBank, ch.queued, rune(picked(ch, 100)))
		}
	}
}

func TestNoReadyBankSchedulesNothing(t *testing.T) {
	d := New(quietConfig())
	ch := &d.channels[0]
	ch.banks[2].readyAt, ch.banks[5].readyAt = 50, 30
	queueOn(d, 2, 0, 'A')
	queueOn(d, 5, 0, 'B')
	if got := d.Tick(10); len(got) != 0 || ch.queued != 2 || ch.flights.len() != 0 {
		t.Fatalf("tick at 10 landed %v and left %d queued, %d in flight; want nothing scheduled",
			got, ch.queued, ch.flights.len())
	}
	if got := d.NextEventAt(10); got != 30 {
		t.Fatalf("NextEventAt(10) = %d, want bank 5's ready cycle 30", got)
	}
	d.Tick(30)
	if ch.queued != 1 || ch.flights.len() != 1 || ch.flights.front().Tag != 'B' {
		t.Fatalf("tick at 30: %d queued, %d in flight; want B scheduled", ch.queued, ch.flights.len())
	}
}
