package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/dram"
	"plasticine/internal/fault"
	"plasticine/internal/pattern"
	"plasticine/internal/trace"
	"plasticine/internal/workloads"
)

// streamPrepare is prepare as it ran before the functional and timing
// phases split: the interpreter feeds the graph builder one leaf execution
// at a time, with no log between them. It is the reference the replay must
// reproduce.
func streamPrepare(ctx context.Context, m *compiler.Mapping, opts Options) (*engine, *dhdl.State, error) {
	b := newBuilder(m)
	if opts.CoalesceWindow > 0 {
		b.coalesceWindow = opts.CoalesceWindow
	}
	b.disableNBuffer = opts.DisableNBuffer
	st, err := dhdl.TraceContext(ctx, m.Prog, b.handle)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: functional execution failed: %w", err)
	}
	dcfg := dram.DDR3_1600x4()
	dcfg.Channels = m.Params.Chip.DDRChannels
	ddr := dram.New(dcfg)
	if err := ddr.InjectFaults(m.Faults.DRAMFaults()); err != nil {
		return nil, nil, err
	}
	return &engine{acts: b.acts, dram: ddr, units: b.units, rec: opts.Recorder,
		maxCycles: opts.MaxCycles, stallWindow: defaultStallWindow,
		loop: eventLoop, insts: simMetrics.Load()}, st, nil
}

// replayIdentityPlans are the fault plans the replay identity runs under:
// a pristine fabric and sparse-faulted's plan at seed 1 (a channel down,
// transient retries, latency spikes, and a PCU and a channel killed
// mid-run). The core package's memo identity adds seeds 2 and 3.
func replayIdentityPlans(t *testing.T) []*fault.Plan {
	t.Helper()
	spec, err := fault.ParseSpec("seed=1,chan=1,retry=0.002,spike=0.02,kill-pcu@8000,kill-chan@20000")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NewPlan(spec, arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	return []*fault.Plan{nil, plan}
}

// observed is everything a traced run shows: its result with the host wall
// time zeroed, its unit report and its pattern report, as JSON, or its
// error.
func observed(t *testing.T, name string, res *Result, col *trace.Collector, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	res.WallTime = 0
	var buf bytes.Buffer
	for _, v := range []any{res, col.Report(), col.PatternReport(name)} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.String()
}

// TestReplayMatchesStreaming: a log recorded from one Build of each Table 4
// benchmark, replayed against the mapping of a fresh instance's Program()
// — unbound, as a memoized functional result is timed — gives the same
// result, unit report and pattern report, byte for byte, as the streaming
// path on a built program, on a pristine fabric and under faults with
// mid-run recovery. The functional state matches too.
func TestReplayMatchesStreaming(t *testing.T) {
	ctx := context.Background()
	plans := replayIdentityPlans(t)
	for _, b := range workloads.All() {
		name := b.Name()
		instance := func() workloads.Benchmark {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		built := func() *dhdl.Program {
			p, err := instance().Build()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		traced := built()
		log, st, err := Execute(ctx, traced)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, plan := range plans {
			label := "pristine"
			if plan != nil {
				label = fmt.Sprintf("seed %d", plan.Spec.Seed)
			}
			compile := func(p *dhdl.Program) *compiler.Mapping {
				m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: arch.Default(), Faults: plan})
				if err != nil {
					t.Fatalf("%s, %s: %v", name, label, err)
				}
				return m
			}

			refCol := trace.NewCollector()
			refOpts := Options{Recovery: true, Recorder: refCol}
			mRef := compile(built())
			var refRes *Result
			eng, refSt, err := streamPrepare(ctx, mRef, refOpts)
			if err == nil {
				refRes, err = eng.resolveAll(ctx, mRef, refOpts)
			}
			want := observed(t, name, refRes, refCol, err)

			prog, err := instance().Program()
			if err != nil {
				t.Fatal(err)
			}
			col := trace.NewCollector()
			res, err := Replay(ctx, compile(prog), log, Options{Recovery: true, Recorder: col})
			if got := observed(t, name, res, col, err); got != want {
				t.Errorf("%s, %s: the replay differs from the streaming run:\n--- streaming\n%.2000s\n--- replay\n%.2000s", name, label, want, got)
			}
			if refSt != nil && !sameState(refSt, mRef.Prog, st, traced) {
				t.Errorf("%s, %s: the functional phase's on-chip state differs from the streaming run's", name, label)
			}
		}
	}
}

// sameState compares the on-chip memories of runs of two instances of one
// program, SRAM by SRAM and register by register, bit for bit.
func sameState(a *dhdl.State, pa *dhdl.Program, b *dhdl.State, pb *dhdl.Program) bool {
	same := func(x, y pattern.Value) bool {
		return x.T == y.T && math.Float32bits(x.F) == math.Float32bits(y.F) && x.I == y.I && x.B == y.B
	}
	for i, s := range pa.SRAMs {
		x, y := a.SRAMData(s), b.SRAMData(pb.SRAMs[i])
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			if !same(x[j], y[j]) {
				return false
			}
		}
	}
	for i, r := range pa.Regs {
		if !same(a.RegValue(r), b.RegValue(pb.Regs[i])) {
			return false
		}
	}
	return true
}

// TestReplayIsRepeatable: one log replays twice against one mapping, and
// under a recorder once more, with the same result every time: a replay
// writes nothing another reads.
func TestReplayIsRepeatable(t *testing.T) {
	m := compileDot(t)
	log, _, err := Execute(context.Background(), m.Prog)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 3; i++ {
		opts := Options{}
		if i == 2 {
			opts.Recorder = trace.NewCollector()
		}
		res, err := Replay(context.Background(), m, log, opts)
		if err != nil {
			t.Fatal(err)
		}
		res.WallTime = 0
		if first == nil {
			first = res
		} else if fmt.Sprint(*res) != fmt.Sprint(*first) {
			t.Fatalf("replay %d = %+v, want %+v", i, *res, *first)
		}
	}
}

// TestReplayRejectsForeignLog: a log replays only against its own
// program's leaves.
func TestReplayRejectsForeignLog(t *testing.T) {
	m := compileDot(t)
	prog, err := workloads.NewGEMM().Build()
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := Execute(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(context.Background(), m, log, Options{}); err == nil {
		t.Fatal("a GEMM log replayed against another program")
	}
}

// TestReplayHonoursCancellation: a canceled context stops the graph build,
// with an error wrapping ctx.Err().
func TestReplayHonoursCancellation(t *testing.T) {
	m := compileDot(t)
	log, _, err := Execute(context.Background(), m.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, m, log, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("replay under a canceled context = %v, want context.Canceled", err)
	}
}
