package sim

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

func TestUnitKeyIdentifiesCopyLanes(t *testing.T) {
	ctrl := &dhdl.Controller{Kind: dhdl.Pipeline, Chain: []dhdl.Counter{dhdl.CStepPar(0, 64, 16, 2)}}
	leaf := &dhdl.Controller{Kind: dhdl.ComputeKind, Depth: 1}
	ev := func(v int32) *dhdl.ExecEvent {
		return &dhdl.ExecEvent{Ctrl: leaf, Path: []*dhdl.Controller{ctrl, leaf}, Env: []int32{v}}
	}
	unitKey := func(e *dhdl.ExecEvent) string { return string(appendUnitKey(nil, 3, e)) }
	copyKey := func(e *dhdl.ExecEvent) string { return string(appendCopyKey(nil, e)) }
	// Iterations 0 and 16 are different copy-lanes of a Par-2 counter
	// (they overlap on duplicate units); 0 and 32 share lane 0.
	if unitKey(ev(0)) == unitKey(ev(16)) {
		t.Error("iterations 0 and 16 are different unroll copies")
	}
	if unitKey(ev(0)) != unitKey(ev(32)) {
		t.Error("iterations 0 and 32 run on the same copy-lane")
	}
	if copyKey(ev(0)) != copyKey(ev(32)) {
		t.Error("copyKey: same lane across waves must share tile memory")
	}
	if copyKey(ev(0)) == copyKey(ev(16)) {
		t.Error("copyKey: different lanes have privatised tiles")
	}
	if got := unitKey(ev(16)); got != "3|1," {
		t.Errorf("unit key %q, want leaf 3 on lane 1: \"3|1,\"", got)
	}
}

func TestEnvPrefixKeyIgnoresOwnChain(t *testing.T) {
	leaf := &dhdl.Controller{Kind: dhdl.LoadKind, Chain: []dhdl.Counter{dhdl.C(4)}, Depth: 1}
	a := &dhdl.ExecEvent{Ctrl: leaf, Env: []int32{7, 0}}
	b := &dhdl.ExecEvent{Ctrl: leaf, Env: []int32{7, 3}}
	c := &dhdl.ExecEvent{Ctrl: leaf, Env: []int32{8, 0}}
	envPrefixKey := func(e *dhdl.ExecEvent) string { return string(appendEnvPrefix(nil, e)) }
	if envPrefixKey(a) != envPrefixKey(b) {
		t.Error("rows of one tile share the prefix key")
	}
	if envPrefixKey(a) == envPrefixKey(c) {
		t.Error("different outer iterations must differ")
	}
}

func TestCoalescingDedupesWithinWindow(t *testing.T) {
	m := compileDot(t)
	b := newBuilder(m)
	buf := m.Prog.DRAMs[0]
	// 32 addresses hitting two 64-byte bursts.
	var addrs []int32
	for i := 0; i < 32; i++ {
		addrs = append(addrs, int32(i%32)) // words 0..31 = 2 bursts
	}
	ev := &dhdl.ExecEvent{Ctrl: m.Prog.Leaves()[0], Buf: buf, SparseAddrs: addrs}
	if got := len(burstsOf(b, ev)); got != 2 {
		t.Errorf("coalesced to %d bursts, want 2", got)
	}
	// With a single-entry window, alternating addresses defeat coalescing.
	b.coalesceWindow = 1
	alt := &dhdl.ExecEvent{Ctrl: m.Prog.Leaves()[0], Buf: buf,
		SparseAddrs: []int32{0, 100, 1, 101, 2, 102}}
	if got := len(burstsOf(b, alt)); got != 6 {
		t.Errorf("window=1 produced %d bursts, want 6", got)
	}

	// Random sparse streams through one builder, so its window's storage is
	// reused across transfers and sizes, must emit what the map-based window
	// emits, burst by burst, after whatever bursts the transfer already
	// lists.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		b.coalesceWindow = []int{1, 2, 63, 64, 65, 200}[n%6]
		ev := &dhdl.ExecEvent{Ctrl: m.Prog.Leaves()[0], Buf: buf,
			DenseOff: rng.Intn(64), SparseAddrs: sparseStream(rng, b.coalesceWindow)}
		prefix := []uint64{uint64(rng.Intn(1 << 20))}[:rng.Intn(2)]
		a := &activity{list: slices.Clone(prefix)}
		a.addListed(0, len(prefix))
		b.burstsFor(a, ev)
		got := expandRuns(a)
		want := mapWindowBursts(b, slices.Clone(prefix), ev)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("stream %d, window %d, %d addresses: %d bursts, the map-based window gives %d; first difference at burst %d",
				n, b.coalesceWindow, len(ev.SparseAddrs), len(got), len(want), i)
		}
	}
}

// sparseStream draws a gather's word indices: repeats from a small pool,
// strided sweeps, cyclic runs over a few bursts more or fewer than the
// window, or a mix of them.
func sparseStream(rng *rand.Rand, window int) []int32 {
	n := rng.Intn(1500)
	out := make([]int32, 0, n)
	for len(out) < n {
		run := 1 + rng.Intn(400)
		switch rng.Intn(4) {
		case 0: // repeats from a pool of words
			pool := 1 + rng.Intn(40*window)
			for i := 0; i < run; i++ {
				out = append(out, int32(rng.Intn(pool)))
			}
		case 1: // a strided sweep
			start, stride := rng.Intn(1<<16), 1+rng.Intn(40)
			for i := 0; i < run; i++ {
				out = append(out, int32(start+i*stride))
			}
		case 2: // a cyclic run over window-2 .. window+2 bursts
			bursts := max(1, window-2+rng.Intn(5))
			start := rng.Intn(1 << 16)
			for i := 0; i < run; i++ {
				out = append(out, int32(start+i%bursts*burstBytes/4+rng.Intn(burstBytes/4)))
			}
		default: // one word again and again
			w := int32(rng.Intn(1 << 16))
			for i := 0; i < run; i++ {
				out = append(out, w)
			}
		}
	}
	return out[:n]
}

// mapWindowBursts is burstsFor's sparse path with the map-based coalescing
// window it had before the open-addressed one, kept as the reference.
func mapWindowBursts(b *builder, dst []uint64, ev *dhdl.ExecEvent) []uint64 {
	base := b.base[ev.Buf]
	window := map[uint64]bool{}
	var order []uint64
	// Coalescing cache: recent-burst window keyed by burst address, fresh
	// for every transfer; order[head:] is the window, oldest first.
	head := 0
	for _, idx := range ev.SparseAddrs {
		addr := (base + uint64(ev.DenseOff)*4 + uint64(idx)*4) &^ (burstBytes - 1)
		if window[addr] {
			continue
		}
		dst = append(dst, addr)
		window[addr] = true
		order = append(order, addr)
		if len(order)-head > b.coalesceWindow {
			// Evict the oldest entry.
			delete(window, order[head])
			head++
		}
	}
	return dst
}

func TestDenseBurstsCoverRange(t *testing.T) {
	m := compileDot(t)
	b := newBuilder(m)
	buf := m.Prog.DRAMs[0]
	ev := &dhdl.ExecEvent{Ctrl: m.Prog.Leaves()[0], Buf: buf, DenseOff: 3, DenseLen: 64}
	bursts := burstsOf(b, ev)
	// 64 words starting at word 3: bytes 12..268 span 5 bursts.
	if len(bursts) != 5 {
		t.Errorf("got %d bursts, want 5", len(bursts))
	}
	for i := 1; i < len(bursts); i++ {
		if bursts[i] != bursts[i-1]+burstBytes {
			t.Errorf("bursts not contiguous: %v", bursts)
		}
	}
	// A merged tile row appends to the bursts before it.
	a := &activity{}
	a.addRow(bursts[0], 1)
	b.burstsFor(a, ev)
	if got := expandRuns(a); len(got) != 6 || got[0] != bursts[0] || got[1] != bursts[0] {
		t.Errorf("appending a row to one burst gave %v", got)
	}
}

// burstsOf returns the bursts of a transfer of the one event ev.
func burstsOf(b *builder, ev *dhdl.ExecEvent) []uint64 {
	a := &activity{}
	b.burstsFor(a, ev)
	return expandRuns(a)
}

func compileDot(t *testing.T) *compiler.Mapping {
	t.Helper()
	m, _, _ := dotSetupMapping(t)
	return m
}

// dotSetupMapping builds the standard dot mapping without running it.
func dotSetupMapping(t *testing.T) (*compiler.Mapping, *dhdl.Reg, float64) {
	t.Helper()
	return dotSetup(t, 4096, 512, true)
}

func TestNBufferAblationSlowsPipeline(t *testing.T) {
	m, _, _ := dotSetup(t, 16384, 1024, true)
	base, _, err := Simulate(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, _ := dotSetup(t, 16384, 1024, true)
	abl, _, err := Simulate(context.Background(), m2, Options{DisableNBuffer: true})
	if err != nil {
		t.Fatal(err)
	}
	if abl.Cycles <= base.Cycles {
		t.Errorf("single-buffered run (%d cycles) should be slower than N-buffered (%d)", abl.Cycles, base.Cycles)
	}
}

// TestOneDDRChannelSlowsMemoryBound: the simulator builds the memory system
// the mapping's architecture names, so a one-channel chip runs a
// memory-bound program far slower than the paper's four channels.
func TestOneDDRChannelSlowsMemoryBound(t *testing.T) {
	m, _, _ := dotSetup(t, 16384, 1024, true)
	base, _, err := Simulate(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, _ := dotSetup(t, 16384, 1024, true)
	m2.Params.Chip.DDRChannels = 1
	slow, _, err := Simulate(context.Background(), m2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(slow.Cycles) < 1.5*float64(base.Cycles) {
		t.Errorf("1-channel run %d cycles vs 4-channel %d; want >=1.5x slower (memory bound)",
			slow.Cycles, base.Cycles)
	}
}

func TestBarriersSerializeSequentialSiblings(t *testing.T) {
	// Two independent computes (no shared memory) under a Sequential
	// parent must still serialize; under Parallel they overlap.
	build := func(kind dhdl.Kind) *compiler.Mapping {
		b := dhdl.NewBuilder("p", dhdl.Sequential)
		s1 := b.SRAM("s1", pattern.F32, 4096)
		d1 := b.SRAM("d1", pattern.F32, 4096)
		s2 := b.SRAM("s2", pattern.F32, 4096)
		d2 := b.SRAM("d2", pattern.F32, 4096)
		body := func([]dhdl.Expr) {
			b.Compute("c1", []dhdl.Counter{dhdl.CPar(4096, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
				return []*dhdl.Assign{dhdl.StoreAt(d1, ix[0], dhdl.Add(dhdl.Ld(s1, ix[0]), dhdl.CF(1)))}
			})
			b.Compute("c2", []dhdl.Counter{dhdl.CPar(4096, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
				return []*dhdl.Assign{dhdl.StoreAt(d2, ix[0], dhdl.Add(dhdl.Ld(s2, ix[0]), dhdl.CF(1)))}
			})
		}
		if kind == dhdl.Sequential {
			b.Seq("pair", nil, body)
		} else {
			b.Par("pair", func() { body(nil) })
		}
		m, err := compiler.CompileOpts(context.Background(), b.MustBuild(), compiler.Options{Params: arch.Default()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	seqRes, _, err := Simulate(context.Background(), build(dhdl.Sequential), Options{})
	if err != nil {
		t.Fatal(err)
	}
	parRes, _, err := Simulate(context.Background(), build(dhdl.Parallel), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(seqRes.Cycles) < 1.7*float64(parRes.Cycles) {
		t.Errorf("sequential (%d cycles) should be ~2x parallel (%d cycles)", seqRes.Cycles, parRes.Cycles)
	}
}
