package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/fault"
	"plasticine/internal/workloads"
)

// TestFaultedCountersGolden pins one faulted, recovered profile's counters
// JSON byte for byte: per-unit cycle accounting, links, the recovery window
// and the per-channel DRAM counters (reads, writes, row outcomes, retries and
// queue peaks) under a downed channel's remap, transient retries, latency
// spikes and a mid-run channel kill. The golden is what
//
//	plasticine profile -bench SMDV -faults seed=3,chan=1,retry=0.01,spike=0.02 \
//	    -events kill-chan@4000 -trace none -counters <file>
//
// writes; regenerate it only for a change that means to alter these counters.
func TestFaultedCountersGolden(t *testing.T) {
	spec, err := fault.ParseSpec("seed=3,chan=1,retry=0.01,spike=0.02,kill-chan@4000")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NewPlan(spec, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSession(WithFaults(plan)).Profile(context.Background(), workloads.NewSMDV())
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.CountersJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "smdv_faulted_counters.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("counters JSON differs from the golden at line %d:\ngot  %s\nwant %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("counters JSON has %d lines, the golden %d", len(g), len(w))
}
