package tune

// Unit tests over the search with a fake evaluator: cycles are a pure
// function of the candidate, so determinism, resume and sharding can be
// pinned byte-for-byte without paying for compilation or simulation.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/exec"
)

// fakeCycles is a deterministic stand-in for simulation: any pure function
// of the tuned genes works, as long as distinct designs usually score
// differently (so fronts are non-trivial).
func fakeCycles(p arch.Params, bench string) int64 {
	c := int64(100000)
	c -= int64(p.Chip.Rows*p.Chip.Cols) * 300
	c -= int64(p.PCU.Stages) * 700
	c -= int64(p.PMU.BankKB) * 50
	c += int64(p.PCU.Registers) * 11
	if bench != "" {
		c += int64(len(bench))
	}
	if c < 1 {
		c = 1
	}
	return c
}

// fakeEnv builds an Env over a fresh engine. calls counts raw (uncached)
// evaluations.
func fakeEnv(workers int, calls *atomic.Int64) Env {
	return Env{
		Engine: exec.NewEngine(workers),
		Evaluate: func(ctx context.Context, p arch.Params, bench string) (EvalOutcome, error) {
			if calls != nil {
				calls.Add(1)
			}
			return EvalOutcome{Cycles: fakeCycles(p, bench)}, nil
		},
	}
}

func testSpec() Spec {
	return Spec{
		Mix:         []MixEntry{{Bench: "A", Weight: 2}, {Bench: "B", Weight: 1}},
		Constraints: Constraints{MaxAreaMM2: 150},
		Budget:      12,
		Population:  8,
		Seed:        42,
	}
}

func searchJSON(t *testing.T, spec Spec, env Env) []byte {
	t.Helper()
	res, err := Search(context.Background(), spec, env)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ResultJSON(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDeterminismAcrossWorkers is the headline contract: same spec, same
// seed — byte-identical plasticine-tune/v1 document at any worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	spec := testSpec()
	one := searchJSON(t, spec, fakeEnv(1, nil))
	eight := searchJSON(t, spec, fakeEnv(8, nil))
	if !bytes.Equal(one, eight) {
		t.Fatalf("front differs across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", one, eight)
	}
	if !bytes.Contains(one, []byte(`"plasticine-tune/v1"`)) {
		t.Fatalf("document is missing its schema tag:\n%s", one)
	}
}

// TestSeedChangesTrajectory guards against the RNG being ignored.
func TestSeedChangesTrajectory(t *testing.T) {
	a, b := testSpec(), testSpec()
	b.Seed = 43
	if bytes.Equal(searchJSON(t, a, fakeEnv(2, nil)), searchJSON(t, b, fakeEnv(2, nil))) {
		t.Fatal("different seeds produced identical documents")
	}
}

// diskEnv is fakeEnv plus a persistent tier rooted at dir.
func diskEnv(t *testing.T, workers int, dir string, calls *atomic.Int64) Env {
	t.Helper()
	env := fakeEnv(workers, calls)
	d, err := exec.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	env.Engine.AttachDisk(d)
	t.Cleanup(func() { d.Flush() })
	return env
}

// rerun searches spec again over dir, whose earlier run finished done of
// the clean run's raw evaluations, and checks the resume contract: the
// clean run's document, those done evaluations served from disk, and only
// the rest computed. It returns the rerun's cache counters.
func rerun(t *testing.T, spec Spec, dir string, want []byte, done, clean int64) exec.CacheStats {
	t.Helper()
	var calls atomic.Int64
	env := diskEnv(t, 4, dir, &calls)
	if got := searchJSON(t, spec, env); !bytes.Equal(got, want) {
		t.Fatalf("rerun differs from the clean run:\n-- rerun --\n%s\n-- clean --\n%s", got, want)
	}
	s := env.Engine.CacheStats()
	if s.DiskHits != done || calls.Load() != clean-done {
		t.Fatalf("rerun: %d disk hits, %d raw evaluations; the earlier run finished %d of the clean run's %d",
			s.DiskHits, calls.Load(), done, clean)
	}
	return s
}

// TestKillAndResume is the durability contract: a search killed after its
// first generation, rerun against the same cache directory, re-walks its
// trajectory with the finished generation served from disk and ends
// byte-identical to an uninterrupted run — and a third run over the
// complete directory recomputes and rewrites nothing.
func TestKillAndResume(t *testing.T) {
	spec := testSpec()

	// Uninterrupted reference run in its own directory.
	var clean atomic.Int64
	want := searchJSON(t, spec, diskEnv(t, 4, t.TempDir(), &clean))

	dir := t.TempDir()
	// Run 1: die (via context cancellation) after the first completed
	// generation.
	var calls1 atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := diskEnv(t, 4, dir, &calls1)
	env.OnGeneration = func(g Generation) {
		if g.Gen >= 1 {
			cancel()
		}
	}
	if _, err := Search(ctx, spec, env); err == nil {
		t.Fatal("canceled search reported success")
	}
	if calls1.Load() == 0 || calls1.Load() >= clean.Load() {
		t.Fatalf("run 1 made %d raw evaluations of the clean run's %d; want a strict prefix", calls1.Load(), clean.Load())
	}

	// Run 2: same directory, fresh engine — the first generation must come
	// from disk and only the rest be computed.
	rerun(t, spec, dir, want, calls1.Load(), clean.Load())

	// Run 3: everything is already evaluated. No raw evaluations, no new
	// disk writes.
	if s := rerun(t, spec, dir, want, clean.Load(), clean.Load()); s.DiskWrites != 0 {
		t.Fatalf("third run rewrote %d cache entries", s.DiskWrites)
	}
}

// TestCancelMidGenerationResumes: a search cut off inside a generation
// keeps that generation's finished evaluations in the cache, and the rerun
// serves every one of them — the two runs together cost exactly one clean
// run's raw evaluations.
func TestCancelMidGenerationResumes(t *testing.T) {
	spec := testSpec()

	// Clean run: record the raw-call count at each generation boundary so
	// the cancel can be aimed inside the second generation.
	var clean atomic.Int64
	cleanEnv := diskEnv(t, 4, t.TempDir(), &clean)
	var bounds []int64
	cleanEnv.OnGeneration = func(Generation) { bounds = append(bounds, clean.Load()) }
	want := searchJSON(t, spec, cleanEnv)
	if len(bounds) < 2 || bounds[1]-bounds[0] < 2 {
		t.Fatalf("second generation too small to cut inside: boundaries %v", bounds)
	}
	cutAt := bounds[0] + (bounds[1]-bounds[0])/2

	dir := t.TempDir()
	var calls1 atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := diskEnv(t, 4, dir, nil)
	env.Evaluate = func(_ context.Context, p arch.Params, bench string) (EvalOutcome, error) {
		if calls1.Add(1) == cutAt {
			cancel()
		}
		return EvalOutcome{Cycles: fakeCycles(p, bench)}, nil
	}
	if _, err := Search(ctx, spec, env); !errors.Is(err, context.Canceled) {
		t.Fatalf("search canceled mid-generation returned %v", err)
	}

	rerun(t, spec, dir, want, calls1.Load(), clean.Load())
}

// TestPruneAllNeverSimulates: with an impossible area ceiling every candidate
// dies in the analytic screen, the budget is never spent, and the loop is
// bounded by MaxGenerations.
func TestPruneAllNeverSimulates(t *testing.T) {
	var calls atomic.Int64
	spec := testSpec()
	spec.Constraints.MaxAreaMM2 = 0.001
	spec.MaxGenerations = 3
	res, err := Search(context.Background(), spec, fakeEnv(2, &calls))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if calls.Load() != 0 || st.Evaluated != 0 {
		t.Fatalf("impossible constraint still simulated: %+v", st)
	}
	if st.Generations != 3 || st.PrunedAnalytic+st.Duplicates != st.Sampled {
		t.Fatalf("accounting: %+v", st)
	}
	if len(res.Front) != 0 {
		t.Fatalf("empty search grew a front: %v", res.Front)
	}
}

// TestInfeasibleConsumesBudgetButNotFront: simulation-detected infeasibility
// (no-route, deadlock) must burn budget — the trajectory cannot depend on
// outcomes — while never surfacing in the front.
func TestInfeasibleConsumesBudgetButNotFront(t *testing.T) {
	spec := testSpec()
	env := fakeEnv(2, nil)
	env.Evaluate = func(ctx context.Context, p arch.Params, bench string) (EvalOutcome, error) {
		return EvalOutcome{Infeasible: true}, nil
	}
	res, err := Search(context.Background(), spec, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated < int64(spec.Budget) {
		t.Fatalf("infeasible outcomes must consume budget: %+v", res.Stats)
	}
	if len(res.Front) != 0 {
		t.Fatalf("infeasible points joined the front: %v", res.Front)
	}
	if res.Stats.InfeasibleSim != res.Stats.Evaluated {
		t.Fatalf("infeasible accounting: %+v", res.Stats)
	}
}

// TestShardedMatchesUnsharded: two cooperating shards over one cache
// directory produce the same document as the unsharded search.
func TestShardedMatchesUnsharded(t *testing.T) {
	spec := testSpec()
	want := searchJSON(t, spec, diskEnv(t, 4, t.TempDir(), nil))

	dir := t.TempDir()
	specs := [2]Spec{spec, spec}
	docs := [2][]byte{}
	var wg sync.WaitGroup
	errs := [2]error{}
	for i := range specs {
		specs[i].Shard, specs[i].Shards = i, 2
		// Short patience: the test must not hinge on cross-shard timing —
		// work stealing yields the same bytes either way.
		specs[i].ShardWait = 200 * time.Millisecond
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := diskEnv(t, 4, dir, nil)
			res, err := Search(context.Background(), specs[i], env)
			if err != nil {
				errs[i] = err
				return
			}
			docs[i], errs[i] = ResultJSON(spec, res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if !bytes.Equal(docs[0], want) || !bytes.Equal(docs[1], want) {
		t.Fatalf("sharded fronts diverge from unsharded:\n-- shard 0 --\n%s\n-- shard 1 --\n%s\n-- unsharded --\n%s",
			docs[0], docs[1], want)
	}
}

// TestBudgetExtensionResumes: raising the budget on a finished search's
// directory continues it instead of restarting — the longer search walks the
// same prefix, and the disk tier serves all of it.
func TestBudgetExtensionResumes(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	var calls atomic.Int64
	small, err := Search(context.Background(), spec, diskEnv(t, 2, dir, &calls))
	if err != nil {
		t.Fatal(err)
	}
	smallCalls := calls.Load()

	spec.Budget *= 2
	calls.Store(0)
	env := diskEnv(t, 2, dir, &calls)
	res, err := Search(context.Background(), spec, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated < int64(spec.Budget) && res.Stats.Generations < spec.MaxGenerations {
		t.Fatalf("extension did not spend the new budget: %+v", res.Stats)
	}
	if s := env.Engine.CacheStats(); s.DiskHits != smallCalls {
		t.Fatalf("extension served %d evaluations from disk; the first run completed %d", s.DiskHits, smallCalls)
	}
	// Each candidate costs len(mix)=2 raw calls; the finished prefix must
	// cost none of them again.
	newCandidates := res.Stats.Evaluated - small.Stats.Evaluated
	if newCandidates <= 0 || calls.Load() != 2*newCandidates {
		t.Fatalf("extension made %d raw calls for %d new candidates (first run: %d calls)",
			calls.Load(), newCandidates, smallCalls)
	}
}

// TestParseMix covers the CLI/HTTP mix grammar.
func TestParseMix(t *testing.T) {
	got, err := ParseMix("GEMM:2, FFT ,GEMM:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Weight != 2 || got[1].Bench != "FFT" || got[1].Weight != 1 {
		t.Fatalf("ParseMix = %+v", got)
	}
	for _, bad := range []string{"", ",", "GEMM:x", "GEMM:-1", ":2"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestSpecNormalizeMergesAndLeavesCallerAlone: the mix is merged and sorted
// into a fresh slice; the caller's backing array must stay untouched.
func TestSpecNormalizeMergesAndLeavesCallerAlone(t *testing.T) {
	mine := []MixEntry{{Bench: "Z", Weight: 1}, {Bench: "A"}, {Bench: "Z", Weight: 2}}
	s := Spec{Mix: mine}
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.Mix) != 2 || s.Mix[0].Bench != "A" || s.Mix[0].Weight != 1 || s.Mix[1].Weight != 3 {
		t.Fatalf("normalized mix = %+v", s.Mix)
	}
	if mine[0].Bench != "Z" || mine[1].Bench != "A" {
		t.Fatalf("normalize scribbled on the caller's slice: %+v", mine)
	}
	if s.Budget == 0 || s.Population == 0 || s.MaxGenerations == 0 || s.Shards != 1 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	// Zero means the default; a negative size is an error naming the field.
	for field, bad := range map[string]Spec{
		"budget":          {Mix: mine, Budget: -3},
		"population":      {Mix: mine, Population: -1},
		"max generations": {Mix: mine, MaxGenerations: -1},
	} {
		if err := bad.normalize(); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("negative %s: normalize returned %v", field, err)
		}
	}
}

// TestGenomeStaysOnGrid: ten thousand mutations of a default-derived design
// must stay on the gene grids and validate.
func TestGenomeStaysOnGrid(t *testing.T) {
	r := rng{state: 7}
	p := randomParams(&r)
	for i := 0; i < 10000; i++ {
		p = mutate(&r, p)
		if err := p.Validate(); err != nil {
			t.Fatalf("mutation %d left the valid grid: %v\n%+v", i, err, p)
		}
	}
}
