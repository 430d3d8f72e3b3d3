package core

// The parallel evaluation engine's central promise: results are byte-identical
// at any worker count. These tests diff workers=1 against workers=8 over the
// artefacts the CLI emits, and pin the cache's hit/miss accounting.

import (
	"bytes"
	"context"
	"testing"

	"plasticine/internal/fault"
	"plasticine/internal/workloads"
)

func mustBench(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func faultSpecSeed(seed int64) fault.Spec {
	return fault.Spec{Seed: seed}
}

// fastBenches keeps the determinism diff cheap: the three quickest Table 4
// benchmarks still exercise dense, branchy and sparse pipelines.
var fastBenches = []string{"InnerProduct", "BlackScholes", "TPCHQ6"}

// stripHostTimes zeroes the host-dependent fields so the diff compares only
// modelled quantities.
func stripHostTimes(results []BenchSim) []BenchSim {
	out := make([]BenchSim, len(results))
	for i, r := range results {
		r.SimWallSeconds, r.CyclesPerSec = 0, 0
		out[i] = r
	}
	return out
}

func TestBenchDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	seq, err := NewSession(WithWorkers(1)).Bench(ctx, fastBenches)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	par, err := NewSession(WithWorkers(8)).Bench(ctx, fastBenches)
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	seqJSON, err := BenchJSON(stripHostTimes(seq))
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := BenchJSON(stripHostTimes(par))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("bench output differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", seqJSON, parJSON)
	}
}

func TestResilienceDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	b := mustBench(t, "InnerProduct")
	fracs := []float64{0, 0.10, 0.30}
	rows1, err := NewSession(WithWorkers(1)).Resilience(ctx, b, faultSpecSeed(3), fracs)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	rows8, err := NewSession(WithWorkers(8)).Resilience(ctx, b, faultSpecSeed(3), fracs)
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	got1 := FormatResilience(b.Name(), 3, rows1)
	got8 := FormatResilience(b.Name(), 3, rows8)
	if got1 != got8 {
		t.Errorf("resilience sweep differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", got1, got8)
	}
}

func TestSessionCacheCountsRepeatedRuns(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(WithWorkers(4))
	if _, err := sess.Bench(ctx, fastBenches); err != nil {
		t.Fatal(err)
	}
	first := sess.CacheStats()
	if first.Misses != int64(len(fastBenches)) {
		t.Errorf("first run: misses = %d, want %d (one per distinct benchmark)", first.Misses, len(fastBenches))
	}
	if _, err := sess.Bench(ctx, fastBenches); err != nil {
		t.Fatal(err)
	}
	second := sess.CacheStats()
	if second.Misses != first.Misses {
		t.Errorf("second identical run recompiled: misses %d -> %d", first.Misses, second.Misses)
	}
	if second.Hits != first.Hits+int64(len(fastBenches)) {
		t.Errorf("second identical run: hits = %d, want %d", second.Hits, first.Hits+int64(len(fastBenches)))
	}
}

// TestCachedResultsSharedAcrossSuites pins the cross-suite guarantee: a
// benchmark evaluated by Bench is not recompiled when Table-7-style
// RunBenchmark asks for the same design point.
func TestCachedResultsSharedAcrossSuites(t *testing.T) {
	ctx := context.Background()
	sess := NewSession(WithWorkers(2))
	if _, err := sess.Bench(ctx, []string{"InnerProduct"}); err != nil {
		t.Fatal(err)
	}
	before := sess.CacheStats()
	if _, err := sess.RunBenchmark(ctx, mustBench(t, "InnerProduct")); err != nil {
		t.Fatal(err)
	}
	after := sess.CacheStats()
	if after.Misses != before.Misses {
		t.Errorf("RunBenchmark after Bench recompiled the same point: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Errorf("RunBenchmark after Bench: hits %d -> %d, want +1", before.Hits, after.Hits)
	}
}
