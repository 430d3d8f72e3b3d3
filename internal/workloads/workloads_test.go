package workloads

import (
	"context"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/sim"
)

// TestFunctional runs every benchmark through the reference interpreter
// and checks its outputs against the golden CPU implementation.
func TestFunctional(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			p, err := b.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			st, err := dhdl.Run(p)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := b.Check(st); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompiles verifies every benchmark fits the default 16x8 Plasticine
// chip and reports plausible utilization.
func TestCompiles(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			p, err := b.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			u := m.Util
			if u.PCUs == 0 {
				t.Error("no PCUs used")
			}
			if u.PCUFrac > 1 || u.PMUFrac > 1 || u.AGFrac > 1 {
				t.Errorf("over-utilized: %+v", u)
			}
		})
	}
}

// TestSimulated runs every benchmark through the cycle-level simulator and
// re-checks functional outputs (the simulator shares the interpreter's
// functional engine, so this guards the whole compile+simulate path).
func TestSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation of all benchmarks is slow")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			p, err := b.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res, st, err := sim.Simulate(context.Background(), m, sim.Options{})
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			if err := b.Check(st); err != nil {
				t.Fatal(err)
			}
			if res.Cycles <= 0 {
				t.Errorf("cycles = %d", res.Cycles)
			}
			t.Logf("%s: %d cycles, %.1f us, %.1f W, %d acts, DRAM %d KB read %d KB written (wall %v)",
				b.Name(), res.Cycles, res.Seconds*1e6, res.PowerW, res.Activities,
				res.DRAM.BytesRead/1024, res.DRAM.BytesWritten/1024, res.WallTime)
		})
	}
}

func TestProfilesPopulated(t *testing.T) {
	for _, b := range All() {
		p := b.Profile()
		if p.Flops <= 0 {
			t.Errorf("%s: Flops = %v", b.Name(), p.Flops)
		}
		if p.DenseBytes <= 0 {
			t.Errorf("%s: DenseBytes = %v", b.Name(), p.DenseBytes)
		}
		if p.FPGALogicUtil <= 0 || p.FPGALogicUtil > 1 {
			t.Errorf("%s: FPGALogicUtil = %v", b.Name(), p.FPGALogicUtil)
		}
		if p.PaperSpeedup <= 0 {
			t.Errorf("%s: PaperSpeedup = %v", b.Name(), p.PaperSpeedup)
		}
		if b.ScaleNote() == "" {
			t.Errorf("%s: empty scale note", b.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"InnerProduct", "GEMM", "BFS"} {
		b, err := ByName(want)
		if err != nil || b.Name() != want {
			t.Errorf("ByName(%q) = %v, %v", want, b, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestAllThirteen(t *testing.T) {
	if got := len(All()); got != 13 {
		t.Errorf("All() returned %d benchmarks, Table 4 lists 13", got)
	}
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name()] {
			t.Errorf("duplicate benchmark %q", b.Name())
		}
		seen[b.Name()] = true
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	r := newRNG(7)
	for i := 0; i < 1000; i++ {
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
		if v := r.intn(13); v < 0 || v >= 13 {
			t.Fatalf("intn out of range: %v", v)
		}
	}
}
