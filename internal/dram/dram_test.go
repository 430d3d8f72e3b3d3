package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// drain ticks until idle, returning the cycle everything completed. landed
// maps each landed burst's tag to its landing cycle (nil to discard).
func drain(d *DRAM, start int64, landed map[int64]int64) int64 {
	now := start
	for !d.Idle() {
		now++
		for _, tag := range d.Tick(now) {
			if landed != nil {
				landed[tag] = now
			}
		}
		if now > start+10_000_000 {
			panic("dram did not drain")
		}
	}
	return now
}

// totals sums the per-channel counters into the run's reads, writes and row
// outcomes.
func totals(d *DRAM) ChanStats {
	var t ChanStats
	for _, c := range d.ChannelStats() {
		t.Reads += c.Reads
		t.Writes += c.Writes
		t.RowHits += c.RowHits
		t.RowMisses += c.RowMisses
		t.RowConflicts += c.RowConflicts
	}
	return t
}

func TestSingleReadLatency(t *testing.T) {
	d := New(DDR3_1600x4())
	d.Tick(0)
	d.Submit(Request{Addr: 0, Tag: 1})
	landed := map[int64]int64{}
	end := drain(d, 0, landed)
	doneAt, ok := landed[1]
	if !ok {
		doneAt = -1
	}
	// One queue cycle + closed-row activate: 1 + tRCD + tCAS + burst = 34.
	if doneAt != 34 {
		t.Errorf("first read completed at %d, want 34", doneAt)
	}
	if end < doneAt {
		t.Errorf("drain ended %d before completion %d", end, doneAt)
	}
	if tot := totals(d); tot.Reads != 1 || tot.RowMisses != 1 || d.Stats().BytesRead != 64 {
		t.Errorf("stats = %+v, channel totals %+v", d.Stats(), tot)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := DDR3_1600x4()

	// Two sequential reads in the same row: second is a row hit.
	d := New(cfg)
	d.Tick(0)
	d.Submit(Request{Addr: 0})
	d.Submit(Request{Addr: uint64(cfg.BurstBytes * cfg.Channels)}) // same channel, same row
	drain(d, 0, nil)
	if hits := totals(d).RowHits; hits != 1 {
		t.Errorf("sequential same-row reads: hits = %d, want 1", hits)
	}

	// Two reads to different rows of the same bank: conflict.
	d2 := New(cfg)
	d2.Tick(0)
	stride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChan)
	d2.Submit(Request{Addr: 0})
	d2.Submit(Request{Addr: stride})
	drain(d2, 0, nil)
	if conflicts := totals(d2).RowConflicts; conflicts != 1 {
		t.Errorf("same-bank different-row reads: conflicts = %d, want 1", conflicts)
	}
}

func TestDenseStreamApproachesPeakBandwidth(t *testing.T) {
	cfg := DDR3_1600x4()
	d := New(cfg)
	n := 4096 // bursts
	next := 0
	now := int64(0)
	done := 0
	for done < n {
		now++
		for next < n && d.Submit(Request{Addr: uint64(next * cfg.BurstBytes)}) {
			next++
		}
		done += len(d.Tick(now))
		if now > 10_000_000 {
			t.Fatal("stream did not finish")
		}
	}
	bytes := float64(n * cfg.BurstBytes)
	achieved := bytes / float64(now)
	peak := peakBandwidth(cfg)
	if achieved < 0.8*peak {
		t.Errorf("dense stream bandwidth %.1f B/cycle < 80%% of peak %.1f", achieved, peak)
	}
	hitRate := float64(totals(d).RowHits) / float64(n)
	if hitRate < 0.9 {
		t.Errorf("dense stream row-hit rate %.2f, want > 0.9", hitRate)
	}
}

func TestRandomAccessSlowerThanDense(t *testing.T) {
	cfg := DDR3_1600x4()
	run := func(addrs []uint64) int64 {
		d := New(cfg)
		i := 0
		done := 0
		now := int64(0)
		for done < len(addrs) {
			now++
			for i < len(addrs) && d.Submit(Request{Addr: addrs[i]}) {
				i++
			}
			done += len(d.Tick(now))
			if now > 50_000_000 {
				panic("did not finish")
			}
		}
		return now
	}
	n := 2048
	dense := make([]uint64, n)
	sparse := make([]uint64, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		dense[i] = uint64(i * cfg.BurstBytes)
		sparse[i] = uint64(rng.Intn(1<<24)) &^ uint64(cfg.BurstBytes-1)
	}
	td, ts := run(dense), run(sparse)
	if float64(ts) < 1.5*float64(td) {
		t.Errorf("random (%d cycles) should be >=1.5x slower than dense (%d cycles)", ts, td)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	cfg := DDR3_1600x4()
	cfg.QueueDepth = 4
	d := New(cfg)
	d.Tick(0)
	accepted := 0
	for i := 0; i < 10; i++ {
		if d.Submit(Request{Addr: uint64(i * cfg.BurstBytes * cfg.Channels)}) { // all same channel
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d requests into depth-4 queue, want 4", accepted)
	}
	if ci, ok := d.Accepts(0); ok || ci != 0 {
		t.Errorf("Accepts(0) = %d, %v with the channel queue full, want 0, false", ci, ok)
	}
}

func TestChannelInterleaving(t *testing.T) {
	cfg := DDR3_1600x4()
	d := New(cfg)
	seen := map[int]bool{}
	for i := 0; i < cfg.Channels; i++ {
		seen[d.channelOf(uint64(i*cfg.BurstBytes))] = true
	}
	if len(seen) != cfg.Channels {
		t.Errorf("consecutive bursts map to %d channels, want %d", len(seen), cfg.Channels)
	}
}

func TestWritesCounted(t *testing.T) {
	d := New(DDR3_1600x4())
	d.Tick(0)
	d.Submit(Request{Addr: 0, Write: true})
	d.Submit(Request{Addr: 64})
	drain(d, 0, nil)
	if tot := totals(d); tot.Writes != 1 || tot.Reads != 1 || d.Stats().BytesWritten != 64 {
		t.Errorf("stats = %+v, channel totals %+v", d.Stats(), tot)
	}
}

func TestAllRequestsEventuallyCompleteProperty(t *testing.T) {
	cfg := DDR3_1600x4()
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		d := New(cfg)
		done := 0
		now := int64(0)
		i := 0
		for done < n {
			now++
			for i < n {
				addr := uint64(rng.Intn(1<<20)) &^ uint64(cfg.BurstBytes-1)
				if !d.Submit(Request{Addr: addr, Write: rng.Intn(2) == 0}) {
					break
				}
				i++
			}
			done += len(d.Tick(now))
			if now > 1_000_000 {
				return false
			}
		}
		tot := totals(d)
		return tot.Reads+tot.Writes == int64(n) && d.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// peakBandwidth returns bytes/cycle at full bus utilisation.
func peakBandwidth(c Config) float64 {
	return float64(c.Channels) * float64(c.BurstBytes) / float64(c.BurstCycle)
}

func TestPeakBandwidthValue(t *testing.T) {
	// 4 channels x 64 B / 5 cycles = 51.2 B/cycle = 51.2 GB/s at 1 GHz.
	if got := peakBandwidth(DDR3_1600x4()); got != 51.2 {
		t.Errorf("peak bandwidth = %.1f B/cycle, want 51.2", got)
	}
}

func TestRefreshStallsBanks(t *testing.T) {
	cfg := DDR3_1600x4()
	cfg.TREFI = 100
	cfg.TRFC = 50
	// Saturate one channel with row hits and measure throughput with and
	// without refresh overhead.
	run := func(c Config) int64 {
		dd := New(c)
		done, next, now := 0, 0, int64(0)
		n := 512
		for done < n {
			now++
			for next < n && dd.Submit(Request{Addr: uint64(next * c.BurstBytes)}) {
				next++
			}
			done += len(dd.Tick(now))
			if now > 1_000_000 {
				t.Fatal("did not finish")
			}
		}
		return now
	}
	noRefresh := cfg
	noRefresh.TREFI = 0
	tRef := run(cfg)
	tNo := run(noRefresh)
	if tRef <= tNo {
		t.Errorf("refresh run (%d cycles) should be slower than no-refresh (%d)", tRef, tNo)
	}
	dd := New(cfg)
	for i := int64(1); i < 500; i++ {
		dd.Tick(i)
	}
	// Each refresh moves the next one tREFI on: four refreshes by cycle 499
	// leave it due at cycle 500.
	if dd.nextRefresh < 500 {
		t.Errorf("next refresh due at %d after 499 cycles with tREFI=100, want >= 500 (4 refreshes)", dd.nextRefresh)
	}
}
