package sim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/dram"
	"plasticine/internal/fault"
	"plasticine/internal/workloads"
)

// burstsForRef is burstsFor as it was when a transfer held one address per
// burst, kept verbatim as the reference the runs must expand to.
func burstsForRef(b *builder, dst []uint64, ev *dhdl.ExecEvent) []uint64 {
	base := b.base[ev.Buf]
	if len(ev.SparseAddrs) == 0 {
		startB := base + uint64(ev.DenseOff)*4
		endB := startB + uint64(ev.DenseLen)*4
		first := startB &^ (burstBytes - 1)
		if endB > first {
			dst = slices.Grow(dst, int((endB-first+burstBytes-1)/burstBytes))
		}
		for a := first; a < endB; a += burstBytes {
			dst = append(dst, a)
		}
		return dst
	}
	// Coalescing cache: the last coalesceWindow distinct bursts, fresh for
	// every transfer. They are the bursts this call appended, so dst[oldest:]
	// is the window, oldest first, and b.window answers membership; it holds
	// one more while a new burst joins before the oldest leaves.
	oldest := len(dst)
	b.window.reset(min(b.coalesceWindow, len(ev.SparseAddrs)) + 1)
	for _, idx := range ev.SparseAddrs {
		addr := (base + uint64(ev.DenseOff)*4 + uint64(idx)*4) &^ (burstBytes - 1)
		if !b.window.add(addr) {
			continue
		}
		dst = append(dst, addr)
		if len(dst)-oldest > b.coalesceWindow {
			b.window.remove(dst[oldest])
			oldest++
		}
	}
	return dst
}

// expandRuns lists a transfer's bursts in issue order, run by run.
func expandRuns(a *activity) []uint64 {
	var out []uint64
	for k := range a.runs {
		r := &a.runs[k]
		if r.perRow == 0 {
			out = append(out, a.list[r.addr:r.addr+uint64(r.rows)]...)
			continue
		}
		for row := 0; row < int(r.rows); row++ {
			for col := 0; col < int(r.perRow); col++ {
				out = append(out, r.at(a.list, row, col))
			}
		}
	}
	return out
}

// checkRuns checks one transfer's runs against the reference list: they
// expand to it, count it, and resolve each burst index to its address.
func checkRuns(t *testing.T, label string, a *activity, want []uint64) {
	t.Helper()
	if got := expandRuns(a); !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: runs %+v expand to %d bursts, the reference lists %d; first difference at burst %d",
			label, a.runs, len(got), len(want), i)
	}
	if a.nBursts != len(want) {
		t.Fatalf("%s: nBursts = %d, the reference lists %d", label, a.nBursts, len(want))
	}
	for i, addr := range want {
		if got := a.burstAt(i); got != addr {
			t.Fatalf("%s: burstAt(%d) = %#x, want %#x", label, i, got, addr)
		}
	}
}

// checkCursor walks a's bursts with the engine's cursor against mem and
// checks each decoded burst against a fresh Decode of the reference
// address. When kill is a channel, it goes down halfway through, and the
// engine's recovery rebuild must decode the cursor afresh. The dram
// package pins Decode and Next to the channel, bank and row that the
// divisions give (TestBurstDecodeMatchesDivision), so the cursor's are
// those too.
func checkCursor(t *testing.T, label string, mem *dram.DRAM, a *activity, want []uint64, kill int) {
	t.Helper()
	e := &engine{dram: mem, byAct: make([]*runningXfer, a.id+1)}
	rx := e.admit(a)
	for i, addr := range want {
		if kill >= 0 && i == len(want)/2 {
			if _, err := mem.KillChannel(kill, nil); err != nil {
				t.Fatal(err)
			}
			e.rebuildEventState()
		}
		if rx.cur.next != i {
			t.Fatalf("%s: the cursor is at burst %d, want %d", label, rx.cur.next, i)
		}
		if ref := mem.Decode(addr); rx.cur.b != ref {
			t.Fatalf("%s: burst %d at %#x decodes as %+v, want %+v", label, i, addr, rx.cur.b, ref)
		}
		e.advance(rx)
	}
	if rx.cur.next != len(want) {
		t.Fatalf("%s: the cursor ends at burst %d, want %d", label, rx.cur.next, len(want))
	}
}

// newMemoryFor is the memory system prepare builds for m.
func newMemoryFor(t *testing.T, m *compiler.Mapping) *dram.DRAM {
	t.Helper()
	mem, err := newMemory(m)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// healthyChannel returns the first channel of mem from channel from on
// that is up, -1 when none is.
func healthyChannel(mem *dram.DRAM, from int) int {
	n := len(mem.QueueOccupancy())
	for k := range n {
		// Channel c owns burst c unless it is down.
		if c := (from + k) % n; mem.ChannelOf(uint64(c)*burstBytes) == c {
			return c
		}
	}
	return -1
}

// graphWithReference builds m's activity graph from log and, beside it,
// each transfer's bursts as the reference lists them, event by event.
func graphWithReference(t *testing.T, m *compiler.Mapping, log *Log) (*builder, map[*activity][]uint64) {
	t.Helper()
	b, rb := newBuilder(m), newBuilder(m)
	ref := map[*activity][]uint64{}
	err := log.replayTo(context.Background(), m.Prog, func(ev *dhdl.ExecEvent) {
		n := len(b.acts)
		b.handle(ev)
		if ev.Ctrl.Kind == dhdl.ComputeKind {
			return
		}
		// A transfer's activity is the first one its event creates; a
		// merged row's is the unit's last.
		a := b.lastOfUnit[b.unitIndex(ev)]
		if len(b.acts) > n {
			a = b.acts[n]
		}
		ref[a] = burstsForRef(rb, ref[a], ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, ref
}

// TestBurstRunsMatchAddresses: a transfer's runs expand to exactly the
// per-burst addresses the builder listed before runs, for every transfer
// of the 13 benchmarks on a pristine fabric and under each of
// sparse-faulted's 32 fault plans, and for 3,000 random transfers. The
// engine's cursor decodes every burst as Decode does, also after a channel
// goes down halfway through a transfer. No dense transfer
// lists an address, and OuterProduct's and GEMM's are one run each.
func TestBurstRunsMatchAddresses(t *testing.T) {
	ctx := context.Background()
	plans := []*fault.Plan{nil}
	for seed := 0; seed < 32; seed++ {
		spec, err := fault.ParseSpec(sparseFaultSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.NewPlan(spec, arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	for _, w := range workloads.All() {
		name := w.Name()
		prog, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		log, _, err := Execute(ctx, prog)
		if err != nil {
			t.Fatal(err)
		}
		for pi, plan := range plans {
			m, err := compiler.CompileOpts(ctx, prog, compiler.Options{Params: arch.Default(), Faults: plan})
			if err != nil {
				t.Fatalf("%s, plan %d: %v", name, pi, err)
			}
			b, ref := graphWithReference(t, m, log)
			transfers, runs := 0, 0
			for _, a := range b.acts {
				if a.kind != actTransfer {
					continue
				}
				transfers++
				runs += len(a.runs)
				label := fmt.Sprintf("%s, plan %d, transfer %d (%s)", name, pi, a.id, a.leaf.Name)
				checkRuns(t, label, a, ref[a])
				if sparse := a.leaf.Kind == dhdl.GatherKind || a.leaf.Kind == dhdl.ScatterKind; !sparse && len(a.list) > 0 {
					t.Fatalf("%s: a dense transfer lists %d addresses", label, len(a.list))
				}
				if (name == "OuterProduct" || name == "GEMM") && len(a.runs) != 1 {
					t.Fatalf("%s: %d runs %+v, want one", label, len(a.runs), a.runs)
				}
				mem := newMemoryFor(t, m)
				checkCursor(t, label, mem, a, ref[a], healthyChannel(mem, a.id))
			}
			if pi == 0 {
				t.Logf("%s: %d transfers in %d runs", name, transfers, runs)
			}
		}
	}

	// Random transfers of one leaf: rows at unaligned starts, of odd and
	// zero lengths, at regular and irregular strides, now and then a sparse
	// row, walked under random channel faults.
	m := compileDot(t)
	b, rb := newBuilder(m), newBuilder(m)
	leaf, buf := m.Prog.Leaves()[0], m.Prog.DRAMs[0]
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		a := &activity{}
		var want []uint64
		off, stride, words := rng.Intn(1<<16), rng.Intn(1<<12)-1<<10, rng.Intn(300)
		for row, rows := 0, rng.Intn(40); row < rows; row++ {
			ev := &dhdl.ExecEvent{Ctrl: leaf, Buf: buf, DenseOff: max(0, off), DenseLen: words}
			switch rng.Intn(12) {
			case 0:
				ev.DenseLen = 0 // an empty row, aligned or not
			case 1:
				ev.DenseOff += 1 + rng.Intn(40) // off the stride
			case 2:
				ev.DenseLen = 1 + rng.Intn(600) // another length
			case 3:
				addrs := sparseStream(rng, b.coalesceWindow)
				ev.SparseAddrs = addrs[:min(len(addrs), rng.Intn(50))]
			}
			b.burstsFor(a, ev)
			want = burstsForRef(rb, want, ev)
			off += stride
		}
		label := fmt.Sprintf("random transfer %d", n)
		checkRuns(t, label, a, want)
		mem := dram.New(dram.DDR3_1600x4())
		if rng.Intn(2) == 0 {
			down := make([]bool, 4)
			down[rng.Intn(4)] = true
			if err := mem.InjectFaults(&dram.Faults{Down: down}); err != nil {
				t.Fatal(err)
			}
		}
		kill := -1
		if rng.Intn(2) == 0 {
			kill = healthyChannel(mem, rng.Intn(4))
		}
		checkCursor(t, label, mem, a, want, kill)
	}
}
