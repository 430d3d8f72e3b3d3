package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
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
// the hit after it must match it exactly; the faulted sessions start from
// the pristine session's entries, so each of their evaluations is a hit.
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
			sess.memo.m = maps.Clone(pristine.memo.m)
		}
		for _, b := range workloads.All() {
			key := b.Name() + "/" + labels[i]
			var built map[string][]byte
			if sess == pristine {
				p, err := sess.Profile(ctx, b)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := spanNames(p.Spans); got != "build,compile,interpret,check,sim" {
					t.Fatalf("%s: the first profile records %s, not a miss", key, got)
				}
				built = parts(p)
			}
			hit, err := sess.Profile(ctx, b)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := spanNames(hit.Spans); got != "memo,build,compile,sim" {
				t.Fatalf("%s: the profile records %s, not a memo hit", key, got)
			}
			point, err := sess.evaluate(ctx, b, plan, sim.Options{}, true)
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
// first leaf and compilation never does, so armed after Build, it cancels
// the run inside the functional trace.
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
	if e := sess.memo.peek(b.Name()); e != nil {
		t.Fatalf("the canceled trace left a memo entry: %+v", e)
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
	if got := spanNames(p.Spans); got != "build,compile,interpret,check,sim" {
		t.Fatalf("the profile after a canceled one records %s, want a full functional phase", got)
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
		func() error { _, err := sess.evaluate(context.Background(), b, nil, sim.Options{}, true); return err },
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
		case "build,compile,interpret,check,sim":
			traced++
		case "memo,build,compile,sim":
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
// keep no functional result for the session; a profile afterwards computes
// its own.
func TestTableRunsKeepNoLog(t *testing.T) {
	sess := NewSession()
	if _, err := sess.RunBenchmark(context.Background(), workloads.NewInnerProduct()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Bench(context.Background(), []string{"TPCHQ6"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"InnerProduct", "TPCHQ6"} {
		if e := sess.memo.peek(name); e != nil {
			t.Errorf("%s: a cached evaluation kept its log", name)
		}
	}
	p, err := sess.Profile(context.Background(), workloads.NewInnerProduct())
	if err != nil {
		t.Fatal(err)
	}
	if got := spanNames(p.Spans); got != "build,compile,interpret,check,sim" {
		t.Errorf("first profile records %s", got)
	}
	if sess.memo.peek("InnerProduct") == nil {
		t.Error("a profile kept no log")
	}
}
