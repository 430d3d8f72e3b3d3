package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/exec"
	"plasticine/internal/fault"
	"plasticine/internal/metrics"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

// memoPlans are the fabrics the memo identity runs on: pristine, and
// sparse-faulted's plan at seeds 1-3 (a channel down, transient retries,
// latency spikes, a PCU killed at cycle 8000 and a channel at 20000).
func memoPlans(t *testing.T) (labels []string, plans []*fault.Plan) {
	t.Helper()
	labels, plans = []string{"pristine"}, []*fault.Plan{nil}
	for seed := 1; seed <= 3; seed++ {
		spec, err := fault.ParseSpec(fmt.Sprintf("seed=%d,chan=1,retry=0.002,spike=0.02,kill-pcu@8000,kill-chan@20000", seed))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.NewPlan(spec, arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		labels, plans = append(labels, fmt.Sprintf("seed=%d", seed)), append(plans, plan)
	}
	return labels, plans
}

// jsonOf marshals v, failing the test on error.
func jsonOf(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// digestOf is the first 8 bytes of data's SHA-256, in hex.
func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// spanNames lists a span's children's names.
func spanNames(sp *metrics.Span) string {
	var names []string
	for _, ch := range sp.Children {
		names = append(names, ch.Name)
	}
	return strings.Join(names, ",")
}

// TestMemoHitsMatchStreamingRuns: on every Table 4 benchmark, pristine and
// under faults with mid-run recovery, a profile and a resilience point
// served from the functional memo give what the streaming path gave, byte
// for byte: the whole BenchResult JSON (host wall time zeroed), the unit
// report and the pattern report. The digests in testdata pin those three to
// the streaming path, where the interpreter fed the graph builder directly,
// as it ran before the functional and timing phases split; regenerate them
// only for a change that means to alter these outputs. The pristine
// session's first profile of each benchmark builds and interprets it, and
// the hit after it must match it exactly; the faulted sessions share the
// pristine session's memo, so each of their evaluations is a hit.
func TestMemoHitsMatchStreamingRuns(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "memo_identity_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	parts := func(p *ProfileResult) map[string][]byte {
		p.Bench.SimWallSec = 0
		return map[string][]byte{"result": jsonOf(t, p.Bench), "report": jsonOf(t, p.Report),
			"pattern": jsonOf(t, p.Pattern)}
	}
	ctx := context.Background()
	labels, plans := memoPlans(t)
	var pristine *Session
	for i, plan := range plans {
		sess := NewSession(WithFaults(plan))
		if pristine == nil {
			pristine = sess
		} else {
			sess.memo = pristine.memo
		}
		for _, b := range workloads.All() {
			key := b.Name() + "/" + labels[i]
			var built map[string][]byte
			if sess == pristine {
				p, err := sess.Profile(ctx, b)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := spanNames(p.Spans); got != "compile,build,interpret,check,sim" {
					t.Fatalf("%s: the first profile records %s, not a miss", key, got)
				}
				built = parts(p)
			}
			hit, err := sess.Profile(ctx, b)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := spanNames(hit.Spans); got != "compile,memo,sim" {
				t.Fatalf("%s: the profile records %s, not a memo hit", key, got)
			}
			point, err := sess.evaluate(ctx, b, plan, sim.Options{}, sess.memo)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			point.SimWallSec = 0

			got := parts(hit)
			got["point"] = jsonOf(t, point)
			for part, data := range got {
				want := golden[key][part]
				if part == "point" {
					want = golden[key]["result"]
				}
				if d := digestOf(data); d != want {
					t.Errorf("%s: the memo hit's %s digest %s, want the streaming path's %s", key, part, d, want)
				}
				if built != nil && part != "point" && !bytes.Equal(data, built[part]) {
					t.Errorf("%s: the memo-hit profile's %s differs from the built run's:\n--- built\n%.1500s\n--- memo hit\n%.1500s", key, part, built[part], data)
				}
			}
		}
	}
}

// countingBench is InnerProduct under a name of its own, counting its
// Builds. Each Program comes from a fresh instance, so concurrent memo
// hits share no instance state; Build and Check, which only the memo's
// owner calls, use the embedded one. check, when set, replaces Check.
type countingBench struct {
	workloads.Benchmark
	name   string
	builds *atomic.Int32
	check  func(*dhdl.State) error
	// onBuild runs after each Build.
	onBuild func()
}

func newCountingBench(name string) *countingBench {
	return &countingBench{Benchmark: workloads.NewInnerProduct(), name: name, builds: new(atomic.Int32)}
}

func (c *countingBench) Name() string { return c.name }

func (c *countingBench) Program() (*dhdl.Program, error) {
	return workloads.NewInnerProduct().Program()
}

func (c *countingBench) Build() (*dhdl.Program, error) {
	c.builds.Add(1)
	p, err := c.Benchmark.Build()
	if c.onBuild != nil {
		c.onBuild()
	}
	return p, err
}

func (c *countingBench) Check(st *dhdl.State) error {
	if c.check != nil {
		return c.check(st)
	}
	return c.Benchmark.Check(st)
}

// innerProductCycles is InnerProduct's Table 7 cycle count.
func innerProductCycles(t *testing.T) int64 {
	t.Helper()
	r, err := NewSession().RunBenchmark(context.Background(), workloads.NewInnerProduct())
	if err != nil {
		t.Fatal(err)
	}
	return r.Cycles
}

// doneTrap is a context that cancels itself the first time its Done
// channel is asked for once armed. The interpreter asks as it compiles its
// first leaf, and neither compilation nor the memo's owner does, so armed
// after Build, it cancels the run inside the functional trace.
type doneTrap struct {
	context.Context
	cancel context.CancelFunc
	armed  atomic.Bool
}

func (c *doneTrap) Done() <-chan struct{} {
	if c.armed.Load() {
		c.cancel()
	}
	return c.Context.Done()
}

// TestCanceledTraceIsNotMemoized: a profile canceled inside its functional
// trace leaves nothing in the memo, and the next profile, under a live
// context, computes the benchmark afresh and succeeds.
func TestCanceledTraceIsNotMemoized(t *testing.T) {
	sess := NewSession()
	b := newCountingBench("TrappedInnerProduct")
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	trap := &doneTrap{Context: base, cancel: cancel}
	b.onBuild = func() { trap.armed.Store(true) }
	_, err := sess.Profile(trap, b)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "functional execution failed") {
		t.Fatalf("profile canceled mid-trace = %v, want a functional-execution error wrapping context.Canceled", err)
	}
	b.onBuild = nil
	p, err := sess.Profile(context.Background(), b)
	if err != nil {
		t.Fatalf("profile after a canceled one: %v", err)
	}
	if want := innerProductCycles(t); p.Bench.Cycles != want {
		t.Fatalf("cycles = %d, want %d", p.Bench.Cycles, want)
	}
	if n := b.builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2: the canceled one and the one after it", n)
	}
	if got := spanNames(p.Spans); got != "compile,build,interpret,check,sim" {
		t.Fatalf("the profile after a canceled one records %s, want a full functional phase", got)
	}
	if st := sess.memo.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("memo %+v, want two misses: the canceled trace kept nothing", st)
	}
}

// TestFailedCheckIsMemoized: a functional check failure is a property of
// the benchmark, so the memo keeps it: every later timing of the benchmark,
// a profile or a resilience point, fails with the same error and builds
// nothing.
func TestFailedCheckIsMemoized(t *testing.T) {
	sess := NewSession()
	b := newCountingBench("BrokenInnerProduct")
	b.check = func(*dhdl.State) error { return errors.New("output word 3 is wrong") }
	_, first := sess.Profile(context.Background(), b)
	if first == nil || !strings.Contains(first.Error(), "functional check failed: output word 3 is wrong") {
		t.Fatalf("profile with a failing check = %v", first)
	}
	for i, run := range []func() error{
		func() error { _, err := sess.Profile(context.Background(), b); return err },
		func() error {
			_, err := sess.evaluate(context.Background(), b, nil, sim.Options{}, sess.memo)
			return err
		},
	} {
		if err := run(); err == nil || err.Error() != first.Error() {
			t.Errorf("timing %d after the failed check = %v, want %v", i, err, first)
		}
	}
	if n := b.builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1", n)
	}
}

// TestConcurrentProfilesTraceOnce: profiles of one benchmark racing in one
// session build and interpret it once; the rest wait and replay its log.
// Run under -race, this also checks they share nothing mutable.
func TestConcurrentProfilesTraceOnce(t *testing.T) {
	sess := NewSession()
	b := newCountingBench("SharedInnerProduct")
	const n = 4
	results := make([]*ProfileResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = sess.Profile(context.Background(), b)
		}()
	}
	wg.Wait()
	traced := 0
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		switch got := spanNames(results[i].Spans); got {
		case "compile,build,interpret,check,sim":
			traced++
		case "compile,memo,sim":
		default:
			t.Errorf("profile %d records %s", i, got)
		}
		if results[i].Bench.Cycles != results[0].Bench.Cycles {
			t.Errorf("profile %d: %d cycles, profile 0: %d", i, results[i].Bench.Cycles, results[0].Bench.Cycles)
		}
	}
	if nb := b.builds.Load(); nb != 1 || traced != 1 {
		t.Errorf("%d builds and %d traces for %d concurrent profiles, want 1 and 1", nb, traced, n)
	}
}

// TestTableRunsKeepNoLog: Table 7's, Bench's and RunBenchmark's
// evaluations, which the design-point cache already limits to one per key,
// neither read nor fill the session's functional memo: after a profile has
// kept InnerProduct's log, RunBenchmark still runs its own functional
// phase, and Bench keeps nothing for TPCHQ6.
func TestTableRunsKeepNoLog(t *testing.T) {
	sess := NewSession()
	p, err := sess.Profile(context.Background(), workloads.NewInnerProduct())
	if err != nil {
		t.Fatal(err)
	}
	if got := spanNames(p.Spans); got != "compile,build,interpret,check,sim" {
		t.Errorf("first profile records %s", got)
	}
	ctx, span := metrics.Start(context.Background(), "run")
	if _, err := sess.RunBenchmark(ctx, workloads.NewInnerProduct()); err != nil {
		t.Fatal(err)
	}
	span.End()
	if got := spanNames(span.Snapshot()); got != "compile,build,interpret,check,sim" {
		t.Errorf("RunBenchmark after a profile records %s, want its own functional phase", got)
	}
	if _, err := sess.Bench(context.Background(), []string{"TPCHQ6"}); err != nil {
		t.Fatal(err)
	}
	if st := sess.memo.Stats(); st != (exec.CacheStats{Misses: 1}) {
		t.Errorf("memo %+v, want the profile's one miss alone", st)
	}
}

// TestUnfitPointBuildsNothing: a profile and a resilience point on a chip
// too small for the benchmark fail to compile before the functional phase,
// so they generate no inputs (no Build) and leave the memo untouched.
func TestUnfitPointBuildsNothing(t *testing.T) {
	tiny := arch.Default()
	tiny.Chip.Rows, tiny.Chip.Cols = 1, 2
	sess := NewSession(WithArch(tiny))
	b := newCountingBench("UnfitInnerProduct")
	if _, err := sess.Profile(context.Background(), b); !isInfeasible(err) {
		t.Errorf("profile on a one-unit chip = %v, want a compile error", err)
	}
	rows, err := sess.Resilience(context.Background(), b, fault.Spec{}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Feasible || !strings.Contains(rows[0].Reason, "UnfitInnerProduct") {
		t.Errorf("resilience on a one-unit chip = %+v, want one infeasible row with the compile error", rows)
	}
	if n := b.builds.Load(); n != 0 {
		t.Errorf("%d builds for design points that do not fit, want 0", n)
	}
	if st := sess.memo.Stats(); st != (exec.CacheStats{}) {
		t.Errorf("design points that do not fit used the memo: %+v", st)
	}
}

// TestProfileWaiterLeavesAtItsDeadline: a profile that finds another
// computing the benchmark's functional result stops waiting when its own
// deadline passes, and the owner's result is still kept for the next one.
func TestProfileWaiterLeavesAtItsDeadline(t *testing.T) {
	sess := NewSession()
	b := newCountingBench("SlowInnerProduct")
	building, release := make(chan struct{}), make(chan struct{})
	b.onBuild = func() {
		close(building)
		<-release
	}
	owner := make(chan error, 1)
	go func() {
		_, err := sess.Profile(context.Background(), b)
		owner <- err
	}()
	<-building
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	waiter := make(chan error, 1)
	go func() {
		_, err := sess.Profile(ctx, b)
		waiter <- err
	}()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("waiting profile = %v, want its own deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("the waiting profile outlived its deadline")
	}
	close(release)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	p, err := sess.Profile(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if got := spanNames(p.Spans); got != "compile,memo,sim" {
		t.Errorf("the profile after the owner's records %s, want a memo hit", got)
	}
	if n := b.builds.Load(); n != 1 {
		t.Errorf("%d builds, want the owner's one", n)
	}
}
