// Package workloads implements the thirteen evaluation benchmarks of
// Table 4 — Inner Product, Outer Product, Black-Scholes, TPC-H Query 6,
// GEMM, GDA, LogReg, SGD, Kmeans, CNN, SMDV, PageRank and BFS — as DHDL
// programs with deterministic data generators and golden CPU references.
//
// Each benchmark separates its program from its data. Program builds the
// DHDL program alone, which is all that compiling, allocating or explaining
// it reads. Build is Program followed by input generation, the host golden
// reference and binding every DRAM buffer, which running and checking it
// need.
//
// The paper's data sizes (e.g. 768 M-element vectors) are scaled down so
// cycle-level simulation fits in test time; each benchmark records its
// scale factor, and the Table 7 harness compares ratios (speedup, perf/W),
// which survive scaling because both the Plasticine simulator and the FPGA
// model run the same scaled instance.
package workloads

import (
	"fmt"
	"math"
	"slices"

	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

// Profile carries the workload characteristics the FPGA baseline model and
// the reporting harness need.
type Profile struct {
	// Flops is useful arithmetic work per run (integer ops counted as
	// flops for the int benchmarks).
	Flops float64
	// DenseBytes is DRAM traffic from dense (burst) transfers.
	DenseBytes float64
	// SparseAccesses is the number of 4-byte random DRAM accesses.
	SparseAccesses float64
	// OpsPerLane is the pipeline depth per parallel lane in a spatial
	// implementation (how much logic one lane costs).
	OpsPerLane int
	// HeavyOpsPerLane counts transcendentals/divides per lane (expensive
	// in FPGA soft logic).
	HeavyOpsPerLane int
	// SeqIters counts inherently sequential outer iterations (loop-carried
	// dependences), each costing a pipeline fill.
	SeqIters int
	// SeqChildren is the number of dependent pipeline stages inside one
	// sequential iteration.
	SeqChildren int
	// PipeDepth is the depth of the per-iteration pipeline for SeqIters.
	PipeDepth int

	// FPGAUtil are the measured Stratix V utilizations from Table 7
	// (fractions), used to size the FPGA baseline's parallelism.
	FPGALogicUtil float64
	FPGAMemUtil   float64

	// Paper-reported comparison points (Table 7), for EXPERIMENTS.md.
	PaperSpeedup  float64
	PaperPerfWatt float64
}

// Benchmark is one Table 4 workload instance.
type Benchmark interface {
	// Name is the benchmark's Table 4 name.
	Name() string
	// Program constructs the DHDL program with every DRAM buffer declared
	// and none bound. It generates no data: running the program fails with
	// an unbound-buffer error, while compiling it maps it as Build's would.
	// It records the handles Check reads, as Build does.
	Program() (*dhdl.Program, error)
	// Build is Program followed by input generation, the host golden
	// reference Check reads, and binding every DRAM buffer to its data.
	Build() (*dhdl.Program, error)
	// Check validates the outputs (DRAM contents and final state) of the
	// latest Build's program against the golden reference it computed.
	Check(st *dhdl.State) error
	// Profile reports workload characteristics for the scaled instance.
	Profile() Profile
	// ScaleNote describes paper size vs simulated size.
	ScaleNote() string
}

// All returns the benchmarks in Table 4 / Table 7 order.
func All() []Benchmark {
	return []Benchmark{
		NewInnerProduct(),
		NewOuterProduct(),
		NewBlackScholes(),
		NewTPCHQ6(),
		NewGEMM(),
		NewGDA(),
		NewLogReg(),
		NewSGD(),
		NewKmeans(),
		NewCNN(),
		NewSMDV(),
		NewPageRank(),
		NewBFS(),
	}
}

// ByName finds a benchmark by (case-sensitive) name.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// bind attaches each collection to p's DRAM buffer of the same name and
// returns p, or an error if a name matches no buffer or a binding fails.
func bind(p *dhdl.Program, cs ...*pattern.Collection) (*dhdl.Program, error) {
	for _, c := range cs {
		i := slices.IndexFunc(p.DRAMs, func(d *dhdl.DRAMBuf) bool { return d.Name == c.Name })
		if i < 0 {
			return nil, fmt.Errorf("workloads: %s has no DRAM buffer %q", p.Name, c.Name)
		}
		if err := p.DRAMs[i].Bind(c); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// rng is a small deterministic generator (xorshift32) so benchmarks are
// reproducible without external deps.
type rng uint32

func newRNG(seed uint32) *rng {
	r := rng(seed | 1)
	return &r
}

func (r *rng) next() uint32 {
	x := uint32(*r)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*r = rng(x)
	return x
}

// float returns a uniform float32 in [0,1).
func (r *rng) float() float32 { return float32(r.next()>>8) / float32(1<<24) }

// intn returns a uniform int in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint32(n)) }

// almostEq compares with relative+absolute tolerance appropriate for f32
// accumulation differences between tree and sequential reduction orders.
func almostEq(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)+1e-3
}

// checkF32Slice compares a DRAM-resident result against a golden slice.
func checkF32Slice(name string, got, want []float32, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", name, len(got), len(want))
	}
	return checkF32Words(name, 0, got, want, rel)
}

// checkF32Words compares got with want word by word, naming got[i] as
// word off+i of the result. Equal finite words pass almostEq whatever the
// tolerance, so only the others take its float64 test.
func checkF32Words(name string, off int, got, want []float32, rel float64) error {
	want = want[:len(got)]
	for i, g := range got {
		if w := want[i]; !(g == w && g-g == 0) && !almostEq(float64(g), float64(w), rel) {
			return fmt.Errorf("%s[%d] = %g, want %g", name, off+i, g, w)
		}
	}
	return nil
}

func checkI32Slice(name string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	return nil
}
