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
				bursts += len(a.bursts)
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
