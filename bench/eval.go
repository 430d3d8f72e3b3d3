package bench

import (
	"context"
	"fmt"
	"math"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/core"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

// sparseBenches are the sparse and DRAM-bound benchmarks sparse-faulted runs.
var sparseBenches = []string{"InnerProduct", "TPCHQ6", "SMDV", "PageRank", "BFS"}

// faultSpec is sparse-faulted's plan: one channel down, transient retries,
// latency spikes, and two timed kills survived by checkpoint/repair/restore.
func faultSpec(seed int64) string {
	return fmt.Sprintf("seed=%d,chan=1,retry=0.002,spike=0.02,kill-pcu@8000,kill-chan@20000", seed)
}

// faultPlans is the size of the plan family sparse-faulted cycles through.
// Pass k of a run with seed s meets plan faultSeed(s, k), so every run
// averages over the same family, which golden.json covers in full, while
// the seed still decides which plan each pass meets.
const faultPlans = 32

func faultSeed(seed int64, pass int) int64 {
	return ((seed+int64(pass))%faultPlans + faultPlans) % faultPlans
}

// evalInstance evaluates a list of Table 4 benchmarks per pass, each pass
// on a fresh single-worker Session (memory cache only), so no pass hits the
// previous pass's cache.
type evalInstance struct {
	workload string
	benches  []string
	seed     int64
	plans    []*fault.Plan // sparse-faulted's family, by fault seed; nil: pristine fabric
	// table7 marks the full Table 7 list, whose accuracy against the paper
	// is checked too.
	table7 bool
}

func openTable7(seed int64) (instance, error) {
	names := make([]string, 0, 13)
	for _, b := range workloads.All() {
		names = append(names, b.Name())
	}
	return &evalInstance{workload: "table7", benches: names, seed: seed, table7: true}, nil
}

func openSparseFaulted(seed int64) (instance, error) {
	e := &evalInstance{workload: "sparse-faulted", benches: sparseBenches, seed: seed}
	for s := int64(0); s < faultPlans; s++ {
		spec, err := fault.ParseSpec(faultSpec(s))
		if err != nil {
			return nil, err
		}
		plan, err := fault.NewPlan(spec, arch.Default())
		if err != nil {
			return nil, err
		}
		e.plans = append(e.plans, plan)
	}
	return e, nil
}

// plan returns pass idx's fault plan and the seed golden.json keys its ops
// by (-1 on a pristine fabric, where the seed changes only the op order).
func (e *evalInstance) plan(idx int) (*fault.Plan, int64) {
	if e.plans == nil {
		return nil, -1
	}
	s := faultSeed(e.seed, idx)
	return e.plans[s], s
}

func (e *evalInstance) close() {}

func (e *evalInstance) pass(p *pass) error {
	plan, goldenSeed := e.plan(p.idx)
	sess := core.NewSession(core.WithWorkers(1), core.WithFaults(plan))
	var speedups []*core.BenchResult
	for _, i := range p.rng.Perm(len(e.benches)) {
		name := e.benches[i]
		p.settle()
		p.op("op", name, func(o *op) error {
			var id Identity
			var err error
			if p.tr == nil {
				var r *core.BenchResult
				r, err = sess.RunBenchmark(context.Background(), mustBench(name))
				if err == nil {
					id = identityOfBench(r)
					speedups = append(speedups, r)
				}
			} else {
				id, err = tracedEval(o, name, plan)
			}
			if err != nil {
				return err
			}
			p.addIdentity(id)
			return p.chk.check(goldenKey(e.workload, goldenSeed, name), id)
		})
	}
	st := sess.CacheStats()
	p.add("exec.hits", float64(st.Hits))
	p.add("exec.misses", float64(st.Misses))
	if e.table7 && len(speedups) == len(e.benches) {
		p.check("table7 speedup error", p.chk.checkSpeedupErr(SpeedupErr(speedups)))
	}
	return nil
}

// tracedEval is what Session.RunBenchmark does, one layer call at a time,
// plus dhdl.Trace alone on a second copy of the program: inside
// sim.Simulate the interpreter runs interleaved with graph construction and
// cannot be timed from outside.
func tracedEval(o *op, name string, plan *fault.Plan) (Identity, error) {
	ctx := context.Background()
	b := mustBench(name)
	var prog *dhdl.Program
	var m *compiler.Mapping
	var res *sim.Result
	var st *dhdl.State
	err := o.layer("workloads.build", func() (err error) {
		prog, err = b.Build()
		return err
	})
	if err == nil {
		err = o.layer("compiler.compile", func() (err error) {
			m, err = compiler.CompileOpts(ctx, prog, compiler.Options{Params: arch.Default(), Faults: plan.Clone()})
			return err
		})
	}
	if err == nil {
		err = o.layer("sim.simulate", func() (err error) {
			res, st, err = sim.Simulate(ctx, m, sim.Options{Recovery: true})
			return err
		})
	}
	if err == nil {
		err = o.layer("workloads.check", func() error { return b.Check(st) })
	}
	if err != nil {
		return Identity{}, err
	}
	o.p.add("sim.engine_s", res.WallTime.Seconds())
	o.p.add("sim.engine_cycles", float64(res.Cycles))
	copyProg, err := mustBench(name).Build()
	if err != nil {
		return Identity{}, err
	}
	if err := o.layer("dhdl.trace", func() error {
		_, err := dhdl.Trace(copyProg, nil)
		return err
	}); err != nil {
		return Identity{}, err
	}
	return identityOfResult(res), nil
}

// mustBench returns a fresh instance of a registry benchmark; the names
// used here are all in the registry.
func mustBench(name string) workloads.Benchmark {
	b, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// SpeedupErr is Table 7's accuracy against the paper: exp of the mean over
// rows of |ln(speedup / paper speedup)|.
func SpeedupErr(rows []*core.BenchResult) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += math.Abs(math.Log(r.Speedup / r.PaperSpeedup))
	}
	return math.Exp(sum / float64(len(rows)))
}
