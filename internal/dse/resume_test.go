package dse

import (
	"context"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/exec"
)

// newDiskEngine builds a fresh engine (fresh in-memory cache, as after a
// process restart) over the persistent tier rooted at dir.
func newDiskEngine(t *testing.T, dir string, workers int) *exec.Engine {
	t.Helper()
	d, err := exec.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.NewEngine(workers)
	eng.AttachDisk(d)
	return eng
}

func TestFigure7ResumesFromDiskTier(t *testing.T) {
	benches, err := LoadBenches()
	if err != nil {
		t.Fatal(err)
	}
	benches = benches[:3] // keep the sweep small
	chip := arch.Default().Chip
	dir := t.TempDir()

	s1 := NewSweep(benches, chip, newDiskEngine(t, dir, 2))
	p1, err := s1.Figure7(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	first := s1.Engine.CacheStats()
	if first.DiskWrites == 0 {
		t.Fatal("first run persisted nothing")
	}

	// A fresh engine over the same tier — the killed-and-rerun scenario.
	s2 := NewSweep(benches, chip, newDiskEngine(t, dir, 2))
	p2, err := s2.Figure7(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p2.Format(), p1.Format(); got != want {
		t.Fatalf("resumed panel differs from the original:\n%s\nvs\n%s", got, want)
	}
	second := s2.Engine.CacheStats()
	if second.DiskHits == 0 {
		t.Fatal("resumed run never hit the persistent tier")
	}
	// Every memory miss in the resumed run is served from disk (the
	// whole-descent entries hit, so the inner grid points are never even
	// requested) and nothing is recomputed or rewritten.
	if second.DiskHits != second.Misses {
		t.Fatalf("resumed run: %d misses but only %d disk hits — something recomputed",
			second.Misses, second.DiskHits)
	}
	if second.DiskWrites != 0 {
		t.Fatalf("resumed run rewrote %d entries, want 0", second.DiskWrites)
	}
}

func TestTable6ResumesFromDiskTier(t *testing.T) {
	benches, err := LoadBenches()
	if err != nil {
		t.Fatal(err)
	}
	benches = benches[:2]
	params := arch.Default()
	dir := t.TempDir()

	s1 := NewSweep(benches, params.Chip, newDiskEngine(t, dir, 2))
	r1, err := s1.Table6(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}

	s2 := NewSweep(benches, params.Chip, newDiskEngine(t, dir, 2))
	r2, err := s2.Table6(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatTable6(r2), FormatTable6(r1); got != want {
		t.Fatalf("resumed Table 6 differs:\n%s\nvs\n%s", got, want)
	}
	if s2.Engine.CacheStats().DiskHits < int64(len(benches)) {
		t.Fatalf("resumed run hit disk %d times, want at least one per bench row",
			s2.Engine.CacheStats().DiskHits)
	}
}

// TestTable3ResumesFromPartialDiskTier resumes from a tier that holds only
// the start of a run, as a kill after Figure 7's panel a leaves it. Table 3
// over that tier must read what a memory-only run computes, serving panel
// a's points from disk and computing and persisting the rest.
func TestTable3ResumesFromPartialDiskTier(t *testing.T) {
	benches := benches(t)[:1] // every computed point is an fsynced file
	chip := arch.Default().Chip
	dir := t.TempDir()
	ctx := context.Background()

	if _, err := NewSweep(benches, chip, newDiskEngine(t, dir, 2)).Figure7(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	want, err := NewSweep(benches, chip, exec.NewEngine(2)).Table3(ctx)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSweep(benches, chip, newDiskEngine(t, dir, 2))
	got, err := s.Table3(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := FormatTable3(got), FormatTable3(want); g != w {
		t.Fatalf("resumed Table 3 differs from a memory-only run:\n%s\nvs\n%s", g, w)
	}
	st := s.Engine.CacheStats()
	if st.DiskHits == 0 || st.DiskWrites == 0 {
		t.Fatalf("resumed run: %d disk hits, %d disk writes; want both above 0", st.DiskHits, st.DiskWrites)
	}
	// Every memory miss is either read from the tier or computed and
	// written to it: nothing the tier holds is computed again.
	if st.DiskHits+st.DiskWrites != st.Misses {
		t.Fatalf("resumed run: %d misses, %d disk hits, %d disk writes", st.Misses, st.DiskHits, st.DiskWrites)
	}
}
