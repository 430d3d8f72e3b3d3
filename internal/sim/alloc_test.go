package sim

import (
	"context"
	"runtime"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/workloads"
)

// TestEngineAllocatesPerTransfer guards the engine's allocation profile.
// Issuing, landing and retiring bursts allocate nothing, so resolving a
// graph costs a few allocations per transfer (its running state and the
// growth of the engine's lists) plus a constant, however many bursts move.
// OuterProduct moves about 500 bursts per transfer.
func TestEngineAllocatesPerTransfer(t *testing.T) {
	for _, name := range []string{"OuterProduct", "InnerProduct"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := compiler.CompileOpts(context.Background(), prog, compiler.Options{Params: arch.Default()})
		if err != nil {
			t.Fatal(err)
		}
		eng, _ := executeAndPrepare(t, m, eventLoop)
		transfers, bursts := 0, 0
		for _, a := range eng.acts {
			if a.kind == actTransfer {
				transfers++
				bursts += a.nBursts
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eng.run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("%s: %d allocations for %d transfers, %d bursts", name, allocs, transfers, bursts)
		if limit := uint64(4*transfers + 512); allocs > limit {
			t.Errorf("%s: engine made %d allocations for %d transfers (%d bursts), want at most %d",
				name, allocs, transfers, bursts, limit)
		}
	}
}

// TestGraphAllocatesPerTransfer guards the graph build's memory: a dense
// transfer holds its bursts as runs, not one address per burst, so building
// OuterProduct's graph from its log allocates bytes per transfer plus a
// constant, however many bursts move. Its 528 transfers move 264,320
// bursts, whose addresses alone took 2.1 MB, and 6.8 MB to build.
func TestGraphAllocatesPerTransfer(t *testing.T) {
	w, err := workloads.ByName("OuterProduct")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := compiler.CompileOpts(context.Background(), prog, compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := Execute(context.Background(), m.Prog)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng, err := prepare(context.Background(), m, log, Options{}, eventLoop)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	transfers, bursts := 0, 0
	for _, a := range eng.acts {
		if a.kind == actTransfer {
			transfers++
			bursts += a.nBursts
		}
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("OuterProduct: %d bytes for %d activities, %d transfers, %d bursts", allocated, len(eng.acts), transfers, bursts)
	if limit := uint64(1024*transfers + 256<<10); allocated > limit {
		t.Errorf("the graph build allocated %d bytes for %d transfers (%d bursts), want at most %d",
			allocated, transfers, bursts, limit)
	}
}
