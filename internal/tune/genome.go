package tune

import (
	"fmt"

	"plasticine/internal/arch"
	"plasticine/internal/dse"
)

// The genome: the tuned subset of arch.Params, each gene with its value
// grid. PCU datapath genes are the Table 3 design space, dse.PCUSpace, in
// its order (the RNG draws follow the genome's order); the
// chip-organisation genes extend it to grid shape, scratchpad depth and
// memory channels. Everything else stays at the paper defaults — notably
// Lanes (and the matching PMU bank count) stays 16, the vector width the
// whole fabric is provisioned around. Columns are all even so every grid
// holds an equal number of PCUs and PMUs (arch.Validate's invariant). The
// product of the grids is ~3x10⁸ candidates — far beyond enumeration,
// which is the point of the search.
type gene struct {
	name   string
	values []int
	field  func(p *arch.Params) *int
}

var genome = append(pcuGenes(),
	gene{"pmu.bankKB", []int{4, 8, 16, 32, 64}, func(p *arch.Params) *int { return &p.PMU.BankKB }},
	gene{"chip.rows", []int{2, 4, 6, 8, 10, 12, 16}, func(p *arch.Params) *int { return &p.Chip.Rows }},
	gene{"chip.cols", []int{4, 8, 12, 16, 20, 24}, func(p *arch.Params) *int { return &p.Chip.Cols }},
	gene{"chip.ddr", []int{1, 2, 4, 8}, func(p *arch.Params) *int { return &p.Chip.DDRChannels }},
)

// pcuGenes returns one gene per dse.PCUSpace parameter.
func pcuGenes() []gene {
	var out []gene
	for _, pp := range dse.PCUSpace {
		out = append(out, gene{"pcu." + pp.Name, pp.Values,
			func(p *arch.Params) *int { return pp.Field(&p.PCU) }})
	}
	return out
}

// paramKey canonicalises a candidate's tuned genes: the dedup identity, the
// deterministic tie-break, and the human-readable label. Untuned fields are
// fixed at arch.Default(), so the genes fully identify the candidate.
func paramKey(p arch.Params) string {
	return fmt.Sprintf("chip%dx%d ddr%d pcu%d/%d/%d/%d/%d/%d pmu%dKB",
		p.Chip.Cols, p.Chip.Rows, p.Chip.DDRChannels,
		p.PCU.Stages, p.PCU.Registers, p.PCU.ScalarIns, p.PCU.ScalarOuts,
		p.PCU.VectorIns, p.PCU.VectorOuts, p.PMU.BankKB)
}

// rng is a splitmix64 generator seeded from Spec.Seed, so a rerun replays
// the exact draw sequence — which is what lets a killed search resume from
// the design-point cache alone.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n). The modulo bias at n ≪ 2⁶⁴ is irrelevant
// for sampling a design space.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomParams samples a uniform candidate over the genome.
func randomParams(r *rng) arch.Params {
	p := arch.Default()
	for _, g := range genome {
		*g.field(&p) = g.values[r.intn(len(g.values))]
	}
	return p
}

// mutate perturbs 1–3 genes of a parent, each by one grid step (falling
// back to a uniform redraw when the value is off-grid or pinned at an
// edge), so children explore the parent's neighbourhood.
func mutate(r *rng, parent arch.Params) arch.Params {
	p := parent
	for n := 1 + r.intn(3); n > 0; n-- {
		g := genome[r.intn(len(genome))]
		f, idx := g.field(&p), -1
		cur := *f
		for i, v := range g.values {
			if v == cur {
				idx = i
				break
			}
		}
		step := 1
		if r.intn(2) == 0 {
			step = -1
		}
		if idx < 0 || idx+step < 0 || idx+step >= len(g.values) {
			*f = g.values[r.intn(len(g.values))]
			continue
		}
		*f = g.values[idx+step]
	}
	return p
}
