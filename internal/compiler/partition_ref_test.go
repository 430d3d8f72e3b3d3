package compiler

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/workloads"
)

// partitionPCURef is PartitionPCU's greedy as it was before the grower,
// kept verbatim as the reference the grower must match: for every candidate
// partition [start, end) it rebuilds the cost metrics from use-position
// maps.
func partitionPCURef(u *VirtualPCU, p arch.PCUParams) ([]*PhysPCU, error) {
	if u.Lanes > p.Lanes {
		return nil, fmt.Errorf("compiler: %s needs %d lanes, PCU has %d", originTag(u.Name, u.Origin), u.Lanes, p.Lanes)
	}
	// Use positions: op results carry a def position and last use; input
	// streams carry every use position (a stream enters each partition
	// that uses it directly from its source PMU/FIFO — it does not pass
	// through partitions that ignore it). Output sources count as a use
	// at position n.
	n := len(u.Ops)
	resUses := map[int][]int{}  // op result -> use positions
	vecUses := map[int][]int{}  // vec input -> use positions
	scalUses := map[int][]int{} // scal input -> use positions
	for i, op := range u.Ops {
		for _, a := range op.Args {
			switch a.Kind {
			case OpResult:
				resUses[a.ID] = append(resUses[a.ID], i)
			case VecIn:
				vecUses[a.ID] = append(vecUses[a.ID], i)
			case ScalIn:
				scalUses[a.ID] = append(scalUses[a.ID], i)
			}
		}
	}
	for _, o := range u.Outs {
		switch o.Src.Kind {
		case OpResult:
			resUses[o.Src.ID] = append(resUses[o.Src.ID], n)
		case VecIn:
			vecUses[o.Src.ID] = append(vecUses[o.Src.ID], n)
		case ScalIn:
			scalUses[o.Src.ID] = append(scalUses[o.Src.ID], n)
		}
	}

	// A unit with no ops (pure data movement) still occupies one stage.
	if n == 0 {
		vi, si := len(u.VecIns), len(u.ScalIns)
		vo, so := outCounts(u, 0, 0)
		part := &PhysPCU{StagesUsed: 1, VecIns: vi, ScalIns: si, VecOuts: vo, ScalOuts: so, MaxLive: vi}
		if err := checkPart(u, part, p); err != nil {
			return nil, err
		}
		return []*PhysPCU{part}, nil
	}

	var parts []*PhysPCU
	start := 0
	for start < n {
		// Extend the current partition as far as constraints allow.
		end := start
		var best *PhysPCU
		for end < n {
			cand := buildPartRef(u, start, end+1, n, resUses, vecUses, scalUses)
			if violates(cand, p) {
				break
			}
			best = cand
			end++
		}
		if best == nil {
			cand := buildPartRef(u, start, start+1, n, resUses, vecUses, scalUses)
			return nil, fmt.Errorf("compiler: %s: op %d alone violates PCU constraints (stages=%d live=%d vecIn=%d scalIn=%d vecOut=%d scalOut=%d vs %+v)",
				originTag(u.Name, u.Origin), start, cand.StagesUsed, cand.MaxLive, cand.VecIns, cand.ScalIns, cand.VecOuts, cand.ScalOuts, p)
		}
		parts = append(parts, best)
		start = end
	}
	return parts, nil
}

// usedInRef reports whether any use position falls in [start,end), treating a
// use at n (an output) as belonging to the final partition (end == n).
func usedInRef(uses []int, start, end, n int) bool {
	for _, u := range uses {
		if u >= start && u < end {
			return true
		}
		if u == n && end == n {
			return true
		}
	}
	return false
}

// buildPartRef materialises the partition [start,end) and computes its cost
// metrics: stages, live values, and IO buses. Values cross between
// partitions point-to-point over the vector network: a result produced in
// one partition enters exactly the partitions that consume it (it does not
// pass through unrelated partitions), costing the producer one vector
// output and each consumer one vector input.
func buildPartRef(u *VirtualPCU, start, end, n int,
	resUses, vecUses, scalUses map[int][]int) *PhysPCU {

	part := &PhysPCU{Ops: u.Ops[start:end]}
	for _, op := range part.Ops {
		part.StagesUsed += opStageCost(op, u.Lanes)
	}
	// Vector inputs: external streams used here plus results produced by
	// earlier partitions and consumed here.
	for _, uses := range vecUses {
		if usedInRef(uses, start, end, n) {
			part.VecIns++
		}
	}
	crossIn := 0
	for id, uses := range resUses {
		if id < start && usedInRef(uses, start, end, n) {
			crossIn++
		}
	}
	part.VecIns += crossIn
	// Scalar inputs used in this range.
	for _, uses := range scalUses {
		if usedInRef(uses, start, end, n) {
			part.ScalIns++
		}
	}
	// Outputs: values defined here and consumed by a later partition's op
	// cross out once each (program outputs at position n leave from the
	// defining partition and are counted by outCounts below).
	crossOut := 0
	lastOpUseOf := func(id int) int {
		last := -1
		for _, p := range resUses[id] {
			if p < n && p > last {
				last = p
			}
		}
		return last
	}
	lastUseOf := func(id int) int {
		last := -1
		for _, p := range resUses[id] {
			if p > last {
				last = p
			}
		}
		return last
	}
	for id := start; id < end; id++ {
		if lastOpUseOf(id) >= end {
			crossOut++
		}
	}
	vo, so := outCounts(u, start, end)
	part.VecOuts = vo + crossOut
	part.ScalOuts = so
	// Live values: results in flight inside this partition (defined here,
	// still needed at a later position) plus everything entering it.
	maxLive := 0
	for i := start + 1; i <= end; i++ {
		c := 0
		for id := start; id < i; id++ {
			if _, ok := resUses[id]; ok && lastUseOf(id) >= i {
				c++
			}
		}
		if c > maxLive {
			maxLive = c
		}
	}
	part.MaxLive = maxLive + part.VecIns
	return part
}

// partitionCase is a virtual PCU to partition, with the name a failure
// reports.
type partitionCase struct {
	name string
	u    *VirtualPCU
}

// diffPartitions describes the first difference between two results of
// partitioning one unit, or returns "" when they are equal: the error
// text, the part count, each part's op range and its six metrics.
func diffPartitions(got, want []*PhysPCU, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, reference %q", gotErr, wantErr)
		}
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d parts, reference %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if len(g.Ops) != len(w.Ops) || len(g.Ops) > 0 && g.Ops[0] != w.Ops[0] {
			return fmt.Sprintf("part %d: ops %s, reference %s", i, opRange(g.Ops), opRange(w.Ops))
		}
		if gm, wm := partMetrics(g), partMetrics(w); gm != wm {
			return fmt.Sprintf("part %d: metrics %v, reference %v", i, gm, wm)
		}
	}
	return ""
}

// partMetrics lists a part's six cost metrics: stages, live values, vector
// and scalar inputs, vector and scalar outputs.
func partMetrics(p *PhysPCU) [6]int {
	return [6]int{p.StagesUsed, p.MaxLive, p.VecIns, p.ScalIns, p.VecOuts, p.ScalOuts}
}

func opRange(ops []*VOp) string {
	if len(ops) == 0 {
		return "[]"
	}
	return fmt.Sprintf("[%d, %d]", ops[0].ID, ops[len(ops)-1].ID)
}

// referenceParams returns n parameter sets: the default PCU, one with every
// limit at its largest, one with fewer lanes than the benchmarks' 16, and
// random draws from Table 3's ranges, many of them infeasible for some
// units.
func referenceParams(rng *rand.Rand, n int) []arch.PCUParams {
	narrow := arch.Default().PCU
	narrow.Lanes = 8
	ps := []arch.PCUParams{arch.Default().PCU, narrow,
		{Lanes: 16, Stages: 16, Registers: 16, ScalarIns: 16, ScalarOuts: 6, VectorIns: 10, VectorOuts: 6}}
	for len(ps) < n {
		ps = append(ps, arch.PCUParams{
			Lanes:      16 << rng.Intn(2),
			Stages:     1 + rng.Intn(16),
			Registers:  2 + rng.Intn(15),
			ScalarIns:  1 + rng.Intn(10),
			ScalarOuts: 1 + rng.Intn(6),
			VectorIns:  1 + rng.Intn(10),
			VectorOuts: 1 + rng.Intn(6),
		})
	}
	return ps
}

// comparePartitions partitions every case under every parameter set with
// both PartitionPCU and the reference, checks that CountPCUParts gives the
// reference's part count and verdict, and returns how many results were
// infeasible.
func comparePartitions(t *testing.T, cases []partitionCase, params []arch.PCUParams) (infeasible int) {
	t.Helper()
	for _, c := range cases {
		for _, p := range params {
			got, gotErr := PartitionPCU(c.u, p)
			want, wantErr := partitionPCURef(c.u, p)
			if d := diffPartitions(got, want, gotErr, wantErr); d != "" {
				t.Fatalf("%s under %+v: %s", c.name, p, d)
			}
			if n, ok := CountPCUParts(c.u, p); ok != (wantErr == nil) || ok && n != len(want) {
				t.Fatalf("%s under %+v: CountPCUParts = (%d, %t), reference %d parts, error %v", c.name, p, n, ok, len(want), wantErr)
			}
			if wantErr != nil {
				infeasible++
			}
		}
	}
	return infeasible
}

// benchmarkUnits returns the virtual PCUs of all 13 benchmarks as the
// compiler allocates them.
func benchmarkUnits(tb testing.TB) []partitionCase {
	tb.Helper()
	var cases []partitionCase
	for _, b := range workloads.All() {
		p, err := b.Program()
		if err != nil {
			tb.Fatal(err)
		}
		v, err := Allocate(p)
		if err != nil {
			tb.Fatal(err)
		}
		for _, u := range v.PCUs {
			cases = append(cases, partitionCase{b.Name() + "/" + u.Name, u})
		}
	}
	return cases
}

// TestPartitionPCUMatchesReferenceOnBenchmarks compares the grower with
// the rebuild-every-candidate reference on every virtual PCU of the 13
// benchmarks under 3,000 parameter sets.
func TestPartitionPCUMatchesReferenceOnBenchmarks(t *testing.T) {
	cases := benchmarkUnits(t)
	params := referenceParams(rand.New(rand.NewSource(1)), 3000)
	infeasible := comparePartitions(t, cases, params)
	total := len(cases) * len(params)
	t.Logf("%d units x %d parameter sets: %d infeasible", len(cases), len(params), infeasible)
	if infeasible == 0 || infeasible == total {
		t.Fatalf("%d of %d partitionings infeasible: the sets must mix feasible and infeasible", infeasible, total)
	}
	// The 8-lane set must fail a 16-lane unit at the lane check.
	c := cases[0]
	if _, err := PartitionPCU(c.u, params[1]); c.u.Lanes != 16 || err == nil || !strings.Contains(err.Error(), "PCU has 8") {
		t.Fatalf("%s (%d lanes) under %+v: got %v, want a lane mismatch", c.name, c.u.Lanes, params[1], err)
	}
}

// randomOutputsUnit is randomUnit with some reductions, a random lane
// count and extra program outputs: scalar and vector outputs of random
// ops, and outputs sourced from an input stream, a scalar input, a counter
// or a constant, which leave from the final partition.
func randomOutputsUnit(rng *rand.Rand, nOps int) *VirtualPCU {
	u := randomUnit(rng, nOps)
	u.Lanes = []int{1, 4, 16}[rng.Intn(3)]
	for _, op := range u.Ops {
		if rng.Intn(8) == 0 {
			op.Kind = ReduceOp
		}
	}
	kind := func() OutputKind {
		if rng.Intn(2) == 0 {
			return OutScalReg
		}
		return OutVecFIFO
	}
	u.Outs = append(u.Outs, VOut{Kind: OutScalReg, Src: Operand{Kind: OpResult, ID: rng.Intn(nOps)}})
	for i := rng.Intn(3); i > 0; i-- {
		u.Outs = append(u.Outs, VOut{Kind: kind(), Src: Operand{Kind: OpResult, ID: rng.Intn(nOps)}})
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		src := Operand{Kind: VecIn, ID: rng.Intn(len(u.VecIns))}
		switch rng.Intn(4) {
		case 1:
			if len(u.ScalIns) > 0 {
				src = Operand{Kind: ScalIn, ID: rng.Intn(len(u.ScalIns))}
			}
		case 2:
			src = Operand{Kind: CtrIdx}
		case 3:
			src = Operand{Kind: ConstOperand}
		}
		u.Outs = append(u.Outs, VOut{Kind: kind(), Src: src})
	}
	return u
}

// TestPartitionPCUMatchesReferenceOnRandomUnits compares the grower with
// the reference on 400 random units with input-sourced and scalar outputs
// under 300 parameter sets, and on four units of over 100 ops under 30.
func TestPartitionPCUMatchesReferenceOnRandomUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := make([]partitionCase, 400)
	for i := range cases {
		cases[i] = partitionCase{fmt.Sprintf("random unit %d", i), randomOutputsUnit(rng, 1+rng.Intn(30))}
	}
	params := referenceParams(rng, 300)
	infeasible := comparePartitions(t, cases, params)
	if total := len(cases) * len(params); infeasible == 0 || infeasible == total {
		t.Fatalf("%d of %d partitionings infeasible: the sets must mix feasible and infeasible", infeasible, total)
	}
	// Units too long for PartitionPCU's stack-backed tables.
	long := make([]partitionCase, 4)
	for i := range long {
		long[i] = partitionCase{fmt.Sprintf("long random unit %d", i), randomOutputsUnit(rng, 110+rng.Intn(40))}
	}
	if inf := comparePartitions(t, long, params[:30]); inf == len(long)*30 {
		t.Fatal("every long unit was infeasible")
	}
}

// TestCountPCUPartsAllocatesNothing pins the probe's count-only partition
// at zero allocations on every benchmark unit (the longest, BlackScholes's,
// has 60 ops) and on a random unit of 100 ops, under the default PCU and
// under one too small for most units.
func TestCountPCUPartsAllocatesNothing(t *testing.T) {
	tight := arch.Default().PCU
	tight.Stages, tight.Registers = 4, 3
	cases := append(benchmarkUnits(t), partitionCase{"random unit", randomOutputsUnit(rand.New(rand.NewSource(3)), 100)})
	for _, c := range cases {
		for _, p := range []arch.PCUParams{arch.Default().PCU, tight} {
			if n := testing.AllocsPerRun(20, func() { CountPCUParts(c.u, p) }); n != 0 {
				t.Fatalf("%s (%d ops) under %+v: %v allocations, want 0", c.name, len(c.u.Ops), p, n)
			}
		}
	}
}

// BenchmarkPartitionPCU partitions BlackScholes's largest virtual PCU, the
// longest unit of the 13 benchmarks, at the default PCU.
func BenchmarkPartitionPCU(b *testing.B) {
	var u *VirtualPCU
	for _, c := range benchmarkUnits(b) {
		if strings.HasPrefix(c.name, "BlackScholes/") && (u == nil || len(c.u.Ops) > len(u.Ops)) {
			u = c.u
		}
	}
	p := arch.Default().PCU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionPCU(u, p); err != nil {
			b.Fatal(err)
		}
	}
}
