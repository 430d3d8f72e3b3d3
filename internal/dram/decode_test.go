package dram

import (
	"math/rand"
	"testing"
)

// channelRef and bankRowRef are the channel and the bank and row decodes
// by division, as Submit decoded every request before Burst, kept verbatim
// as the reference.
func channelRef(d *DRAM, addr uint64) int {
	if d.faults != nil {
		idx := int(addr / uint64(d.cfg.BurstBytes))
		ch := idx % d.cfg.Channels
		f := d.faults
		if f == nil || ch >= len(f.Down) || !f.Down[ch] {
			return ch
		}
		if len(d.healthy) == 0 {
			return -1
		}
		return d.healthy[idx%len(d.healthy)]
	}
	return int(addr/uint64(d.cfg.BurstBytes)) % d.cfg.Channels
}

func bankRowRef(d *DRAM, addr uint64) (uint8, int32) {
	block := addr / uint64(d.cfg.BurstBytes) / uint64(d.cfg.Channels)
	row := int32(block * uint64(d.cfg.BurstBytes) / uint64(d.cfg.RowBytes))
	return uint8(int(row) % d.cfg.BanksPerChan), row
}

// TestBurstDecodeMatchesDivision walks runs of consecutive bursts with Next
// over random geometries (rows of whole and of partial bursts, bursts
// larger than rows) and fault plans (healthy, channels down, every channel
// down), killing a channel halfway through some of them. Every step must
// equal a fresh Decode of its address, on the channel (which ChannelOf
// names too) and at the bank and row the divisions give; after a kill the
// walk decodes afresh, as the engine does.
func TestBurstDecodeMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		cfg := DDR3_1600x4()
		cfg.Channels = 1 + rng.Intn(6)
		cfg.BanksPerChan = 1 + rng.Intn(16)
		cfg.BurstBytes = []int{32, 64, 128}[rng.Intn(3)]
		cfg.RowBytes = []int{cfg.BurstBytes * (1 + rng.Intn(64)), 1 + rng.Intn(3000), 2048}[rng.Intn(3)]
		d := New(cfg)
		if rng.Intn(3) > 0 {
			down := make([]bool, rng.Intn(cfg.Channels+1))
			for c := range down {
				down[c] = rng.Intn(3) == 0
			}
			if err := d.InjectFaults(&Faults{Down: down}); err != nil {
				t.Fatal(err)
			}
		}
		addr := uint64(rng.Int63n(1 << 34))
		steps := rng.Intn(600)
		kill := -1
		if rng.Intn(2) == 0 {
			kill = rng.Intn(cfg.Channels)
		}
		b := d.Decode(addr)
		for i := 0; i < steps; i++ {
			if i == steps/2 && kill >= 0 {
				if _, err := d.KillChannel(kill, nil); err == nil {
					b = d.Decode(b.Addr)
				}
			}
			want := d.Decode(b.Addr)
			ch := channelRef(d, b.Addr)
			bank, row := bankRowRef(d, b.Addr)
			if b != want || b.Chan != ch || d.ChannelOf(b.Addr) != ch || b.bank != bank || b.row != row {
				t.Fatalf("case %d (%+v), step %d from %#x: stepped to %+v, Decode gives %+v, ChannelOf %d, division channel %d, bank %d row %d",
					n, cfg, i, addr, b, want, d.ChannelOf(b.Addr), ch, bank, row)
			}
			d.Next(&b)
		}
	}
}
