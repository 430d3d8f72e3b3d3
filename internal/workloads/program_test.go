package workloads

import (
	"context"
	"math"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
	"plasticine/internal/sim"
)

// compileDefault maps p onto the default chip.
func compileDefault(t *testing.T, p *dhdl.Program) *compiler.Mapping {
	t.Helper()
	m, err := compiler.CompileOpts(context.Background(), p, compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

// TestProgramWithoutInputs: every benchmark's Program binds no DRAM
// buffer, compiles to the mapping and bitstream its Build compiles to, and
// fails simulation with the interpreter's unbound-buffer error, not a
// panic or a wrong answer.
func TestProgramWithoutInputs(t *testing.T) {
	for _, b := range All() {
		t.Run(b.Name(), func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatalf("program: %v", err)
			}
			for _, d := range p.DRAMs {
				if d.Data != nil {
					t.Errorf("DRAM buffer %s is bound", d.Name)
				}
			}
			built, err := b.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			m, want := compileDefault(t, p), compileDefault(t, built)
			if m.Summary() != want.Summary() {
				t.Errorf("Program maps as\n%s\nBuild maps as\n%s", m.Summary(), want.Summary())
			}
			if got, want := compiler.GenerateBitstream(m).Assembly(), compiler.GenerateBitstream(want).Assembly(); got != want {
				t.Errorf("bitstreams differ:\n%s\n---\n%s", got, want)
			}
			_, _, err = sim.Simulate(context.Background(), m, sim.Options{})
			if err == nil || !strings.Contains(err.Error(), "not bound") {
				t.Errorf("simulating an unbound program: err = %v, want an unbound-buffer error", err)
			}
		})
	}
}

func TestBindRejectsUnknownBuffer(t *testing.T) {
	p, err := NewInnerProduct().Program()
	if err != nil {
		t.Fatal(err)
	}
	ok := pattern.FromF32("a", make([]float32, p.DRAMs[0].Len()))
	if _, err := bind(p, ok, pattern.FromF32("nope", nil)); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("bind to a missing buffer: err = %v, want one naming it", err)
	}
}

// TestGEMMReferenceIsDotProducts pins every word of GEMM's row-walking
// reference to a j-inner dot-product loop: each element sums over k in
// ascending order either way.
func TestGEMMReferenceIsDotProducts(t *testing.T) {
	w := NewGEMM()
	if _, err := w.Build(); err != nil {
		t.Fatal(err)
	}
	M, N, P := w.M, w.N, w.P
	for i := 0; i < M; i++ {
		for j := 0; j < P; j++ {
			var s float32
			for k := 0; k < N; k++ {
				s += w.a[i*N+k] * w.bm[k*P+j]
			}
			if got := w.want[i*P+j]; math.Float32bits(got) != math.Float32bits(s) {
				t.Fatalf("want[%d][%d] = %x, dot product %x", i, j, math.Float32bits(got), math.Float32bits(s))
			}
		}
	}
}

// TestGDAReferenceIsTripleLoop pins GDA's reference covariance, which
// computes each point's deviation once, to the triple loop that recomputes
// (x[i,j]-mu[c,j])·(x[i,k]-mu[c,k]) for every k: bit for bit.
func TestGDAReferenceIsTripleLoop(t *testing.T) {
	w := NewGDA()
	if _, err := w.Build(); err != nil {
		t.Fatal(err)
	}
	n, d := w.N, w.D
	want := make([]float32, d*d)
	for i := 0; i < n; i++ {
		c := int(w.y[i])
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				want[j*d+k] += (w.x[i*d+j] - w.wantMu[c*d+j]) * (w.x[i*d+k] - w.wantMu[c*d+k])
			}
		}
	}
	for i, s := range want {
		if got := w.wantSg[i]; math.Float32bits(got) != math.Float32bits(s) {
			t.Fatalf("wantSg[%d] = %x, triple loop %x", i, math.Float32bits(got), math.Float32bits(s))
		}
	}
}

// TestCheckRejectsWrongAnswer: each benchmark's Check passes the
// interpreter's answer and fails it once one word is wrong. A DRAM result
// has one output word changed after the run. InnerProduct's and TPCHQ6's
// results are registers, which State only reads, so each has one input
// word its result depends on changed before the run instead.
func TestCheckRejectsWrongAnswer(t *testing.T) {
	outputs := map[string]string{
		"OuterProduct": "c", "BlackScholes": "call", "GEMM": "C", "GDA": "sigma",
		"LogReg": "w", "SGD": "w", "Kmeans": "cent", "CNN": "out",
		"SMDV": "y", "PageRank": "rank", "BFS": "levels",
	}
	inputs := map[string]func(t *testing.T, p *dhdl.Program){
		// total gains 1000*b[i], with |b[i]| > 0.25.
		"InnerProduct": func(t *testing.T, p *dhdl.Program) {
			a, bv := dram(t, p, "a").F32Data(), dram(t, p, "b").F32Data()
			a[firstIndex(t, len(bv), func(i int) bool { return math.Abs(float64(bv[i])) > 0.25 })] += 1000
		},
		// revenue gains 1e6*disc[i] >= 5e4, from a row that passes every
		// predicate.
		"TPCHQ6": func(t *testing.T, p *dhdl.Program) {
			date, qty := dram(t, p, "date").I32Data(), dram(t, p, "qty").I32Data()
			price, disc := dram(t, p, "price").F32Data(), dram(t, p, "disc").F32Data()
			price[firstIndex(t, len(date), func(i int) bool {
				return date[i] >= q6DateLo && date[i] < q6DateHi &&
					disc[i] >= q6DiscLo && disc[i] <= q6DiscHi && qty[i] < q6QtyMax
			})] += 1e6
		},
	}
	run := func(t *testing.T, b Benchmark, corrupt func(*testing.T, *dhdl.Program)) (*dhdl.Program, *dhdl.State) {
		t.Helper()
		p, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if corrupt != nil {
			corrupt(t, p)
		}
		st, err := dhdl.Run(p)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return p, st
	}
	for _, b := range All() {
		t.Run(b.Name(), func(t *testing.T) {
			p, st := run(t, b, nil)
			if err := b.Check(st); err != nil {
				t.Fatalf("correct answer rejected: %v", err)
			}
			if corrupt, ok := inputs[b.Name()]; ok {
				_, st = run(t, b, corrupt)
			} else if c := dram(t, p, outputs[b.Name()]); c.Elem == pattern.I32 {
				c.I32Data()[0]++
			} else {
				v := &c.F32Data()[0]
				*v += 1 + 2*float32(math.Abs(float64(*v)))
			}
			if err := b.Check(st); err == nil {
				t.Error("Check accepted a wrong answer")
			}
		})
	}
}

// dram returns the collection bound to p's DRAM buffer name.
func dram(t *testing.T, p *dhdl.Program, name string) *pattern.Collection {
	t.Helper()
	for _, d := range p.DRAMs {
		if d.Name == name {
			return d.Data
		}
	}
	t.Fatalf("%s has no DRAM buffer %q", p.Name, name)
	return nil
}

// firstIndex is the first i in [0,n) satisfying ok.
func firstIndex(t *testing.T, n int, ok func(int) bool) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if ok(i) {
			return i
		}
	}
	t.Fatal("no index satisfies the predicate")
	return 0
}
