package compiler

import (
	"fmt"
	"math/bits"

	"plasticine/internal/arch"
)

// PhysPCU is one physical PCU's worth of a virtual PCU after partitioning.
type PhysPCU struct {
	Ops        []*VOp
	StagesUsed int
	MaxLive    int
	VecIns     int
	ScalIns    int
	VecOuts    int
	ScalOuts   int
}

// PartPCU maps one virtual PCU to its physical partitions.
type PartPCU struct {
	V     *VirtualPCU
	Parts []*PhysPCU
}

// Units returns physical PCUs needed including unrolling.
func (p PartPCU) Units() int { return len(p.Parts) * p.V.Unroll }

// PartPMU maps one virtual PMU to physical PMUs.
type PartPMU struct {
	V *VirtualPMU
	// Copies is physical PMUs per logical instance: capacity splits times
	// read-port duplication.
	Copies int
	// SupportPCUs is extra PCUs for address calculations that do not fit
	// the PMU datapath (Section 3.6: "PMUs become one PMU with zero or
	// more supporting PCUs").
	SupportPCUs int
}

// Units returns physical PMUs needed including unrolling.
func (p PartPMU) Units() int { return p.Copies * p.V.Unroll }

// Partitioned is the physical-unit requirement of a program under a
// parameter set, before placement.
type Partitioned struct {
	Virtual *Virtual
	PCUs    []PartPCU
	PMUs    []PartPMU

	TotalPCUs int
	TotalPMUs int
	TotalAGs  int

	// UsedFUSlots counts ALU slots executing real ops across all physical
	// PCUs (lanes x op stages), for FU utilization.
	UsedFUSlots int64
}

// originTag renders "name (origin)" for error messages, collapsing to the
// bare name when the origin adds nothing.
func originTag(name, origin string) string {
	if origin != "" && origin != name {
		return fmt.Sprintf("%s (%s)", name, origin)
	}
	return name
}

// reduceStages is the pipeline depth of a cross-lane reduction: log2(lanes)
// tree levels plus the accumulator stage. With 16 lanes this is 5, which is
// why Figure 7a marks fewer than 5 stages infeasible for most benchmarks.
func reduceStages(lanes int) int {
	if lanes <= 1 {
		return 1
	}
	return bits.Len(uint(lanes-1)) + 1
}

func opStageCost(op *VOp, lanes int) int {
	if op.Kind == ReduceOp {
		return reduceStages(lanes)
	}
	return 1
}

// reorderForPressure list-schedules the ops to minimise live op results:
// among ready ops it picks the one that retires the most dying values while
// adding its own, reducing the pipeline registers a partition needs.
func reorderForPressure(u *VirtualPCU) {
	n := len(u.Ops)
	if n < 3 {
		return
	}
	usesLeft := make(map[int]int, n) // op id -> remaining uses
	for _, op := range u.Ops {
		for _, a := range op.Args {
			if a.Kind == OpResult {
				usesLeft[a.ID]++
			}
		}
	}
	for _, o := range u.Outs {
		if o.Src.Kind == OpResult {
			usesLeft[o.Src.ID]++
		}
	}
	depsLeft := make([]int, n)
	dependents := make([][]int, n)
	for _, op := range u.Ops {
		for _, a := range op.Args {
			if a.Kind == OpResult {
				depsLeft[op.ID]++
				dependents[a.ID] = append(dependents[a.ID], op.ID)
			}
		}
	}
	var order []*VOp
	scheduled := make([]bool, n)
	for len(order) < n {
		best, bestScore := -1, 1<<30
		for _, op := range u.Ops {
			if scheduled[op.ID] || depsLeft[op.ID] != 0 {
				continue
			}
			dying := 0
			seen := map[int]bool{}
			for _, a := range op.Args {
				if a.Kind == OpResult && !seen[a.ID] {
					seen[a.ID] = true
					if usesLeft[a.ID] == 1 {
						dying++
					}
				}
			}
			score := 1 - dying // lower is better
			if score < bestScore {
				best, bestScore = op.ID, score
			}
		}
		op := u.Ops[best]
		scheduled[best] = true
		order = append(order, op)
		for _, a := range op.Args {
			if a.Kind == OpResult {
				usesLeft[a.ID]--
			}
		}
		for _, d := range dependents[best] {
			depsLeft[d]--
		}
	}
	// Renumber ops and remap references.
	remap := make([]int, n)
	for newID, op := range order {
		remap[op.ID] = newID
	}
	for _, op := range order {
		for i, a := range op.Args {
			if a.Kind == OpResult {
				op.Args[i].ID = remap[a.ID]
			}
		}
	}
	for i := range u.Outs {
		if u.Outs[i].Src.Kind == OpResult {
			u.Outs[i].Src.ID = remap[u.Outs[i].Src.ID]
		}
	}
	for newID, op := range order {
		op.ID = newID
	}
	u.Ops = order
}

// PartitionPCU splits a virtual PCU into physical PCUs under the given
// parameters using the paper's greedy heuristic with a cost metric of
// physical stages, live values per stage, and IO buses (Section 3.6): each
// partition takes ops in schedule order until the next op would break a
// constraint. A grower keeps the metrics current as the partition grows,
// so one call costs O(n·L) for n ops and partitions of at most L ops.
//
// PartitionPCU is read-only with respect to u (pressure-aware op ordering
// happens once, in Allocate), so many goroutines may partition the same
// virtual unit against different candidate parameters concurrently — the
// access pattern of a parallel design-space sweep.
func PartitionPCU(u *VirtualPCU, p arch.PCUParams) ([]*PhysPCU, error) {
	var parts []*PhysPCU
	if n, bad := partitionPCU(u, p, func(part PhysPCU) { parts = append(parts, &part) }); n < 0 {
		return nil, partitionError(u, p, &bad)
	}
	return parts, nil
}

// CountPCUParts is len(PartitionPCU(u, p)), and false where PartitionPCU
// fails, from the same greedy without building a part or an error: the
// design-point probe's form, which only prices the parts. It allocates
// nothing for units of up to about 100 ops.
func CountPCUParts(u *VirtualPCU, p arch.PCUParams) (int, bool) {
	n, _ := partitionPCU(u, p, nil)
	return n, n >= 0
}

// partitionPCU runs the greedy behind PartitionPCU and CountPCUParts: it
// hands each accepted partition to add, when add is non-nil, and returns
// how many there are. Where u cannot map it returns -1 and the partition
// that breaks a constraint: the op-less unit, or the op that breaks one
// alone (empty on a lane mismatch).
func partitionPCU(u *VirtualPCU, p arch.PCUParams, add func(PhysPCU)) (int, PhysPCU) {
	if u.Lanes > p.Lanes {
		return -1, PhysPCU{}
	}
	n := len(u.Ops)
	// A unit with no ops (pure data movement) still occupies one stage.
	if n == 0 {
		vi, si := len(u.VecIns), len(u.ScalIns)
		vo, so := outCounts(u, 0, 0)
		part := PhysPCU{StagesUsed: 1, VecIns: vi, ScalIns: si, VecOuts: vo, ScalOuts: so, MaxLive: vi}
		if violates(&part, p) {
			return -1, part
		}
		if add != nil {
			add(part)
		}
		return 1, PhysPCU{}
	}

	var tables [512]int32 // the grower's tables for units of up to ~100 ops
	g := newGrower(u, tables[:])
	count := 0
	for start := 0; start < n; count++ {
		// Extend the current partition as far as constraints allow.
		g.reset(start)
		best := g.grow()
		if violates(&best, p) {
			return -1, best
		}
		for g.end < n {
			cand := g.grow()
			if violates(&cand, p) {
				break
			}
			best = cand
		}
		if add != nil {
			add(best)
		}
		start += len(best.Ops)
	}
	return count, PhysPCU{}
}

// partitionError describes why partitionPCU could not map u, from the
// partition it returned.
func partitionError(u *VirtualPCU, p arch.PCUParams, bad *PhysPCU) error {
	switch {
	case u.Lanes > p.Lanes:
		return fmt.Errorf("compiler: %s needs %d lanes, PCU has %d", originTag(u.Name, u.Origin), u.Lanes, p.Lanes)
	case len(bad.Ops) == 0:
		return checkPart(u, bad, p)
	}
	return fmt.Errorf("compiler: %s: op %d alone violates PCU constraints (stages=%d live=%d vecIn=%d scalIn=%d vecOut=%d scalOut=%d vs %+v)",
		originTag(u.Name, u.Origin), bad.Ops[0].ID, bad.StagesUsed, bad.MaxLive, bad.VecIns, bad.ScalIns, bad.VecOuts, bad.ScalOuts, p)
}

// grower grows one partition [start, end) of a virtual PCU an op at a time
// and keeps its cost metrics current: stages, live values, and IO buses.
// Values cross between partitions point-to-point over the vector network:
// a result produced in one partition enters exactly the partitions that
// consume it (it does not pass through unrelated partitions), costing the
// producer one vector output and each consumer one vector input. An input
// stream likewise enters each partition that uses it directly from its
// source PMU or FIFO. Program outputs are uses at position n, so they count
// only in the final partition, the one that reaches n: an earlier result
// that feeds only a program output enters that partition as a vector input.
//
// The tables are indexed by op ID, which is the op's position in u.Ops.
type grower struct {
	u *VirtualPCU
	// lastUse is the last position that uses each op's result (n for a
	// program output, -1 for none); lastOpUse counts op uses only.
	lastUse, lastOpUse []int32
	// outVec and outScal count the program outputs each op sources; inVec
	// and inScal count those sourced from anything but an op, which leave
	// from the final partition.
	outVec, outScal []int32
	inVec, inScal   int
	// resMark, vecMark and scalMark hold start+1 for each earlier result,
	// vector input and scalar input already counted as an input of the
	// partition that begins at start.
	resMark, vecMark, scalMark []int32

	start, end                                 int
	stages, vecIns, scalIns, vecOuts, scalOuts int
	maxLive                                    int // live op results, inputs excluded
}

// newGrower builds the tables for u in one slice: scratch, which must be
// all zero, when it is large enough, a new slice otherwise.
func newGrower(u *VirtualPCU, scratch []int32) grower {
	n, nv, ns := len(u.Ops), len(u.VecIns), len(u.ScalIns)
	buf := scratch
	if size := 5*n + nv + ns; size <= len(buf) {
		buf = buf[:size]
	} else {
		buf = make([]int32, size)
	}
	g := grower{u: u,
		lastUse: buf[:n], lastOpUse: buf[n : 2*n],
		outVec: buf[2*n : 3*n], outScal: buf[3*n : 4*n],
		resMark: buf[4*n : 5*n], vecMark: buf[5*n : 5*n+nv], scalMark: buf[5*n+nv:],
	}
	for id := range g.lastUse {
		g.lastUse[id], g.lastOpUse[id] = -1, -1
	}
	for i, op := range u.Ops {
		for _, a := range op.Args {
			if a.Kind == OpResult {
				g.lastUse[a.ID], g.lastOpUse[a.ID] = int32(i), int32(i)
			}
		}
	}
	for _, o := range u.Outs {
		if o.Src.Kind != OpResult {
			if o.Kind == OutScalReg {
				g.inScal++
			} else {
				g.inVec++
			}
			continue
		}
		g.lastUse[o.Src.ID] = int32(n)
		if o.Kind == OutScalReg {
			g.outScal[o.Src.ID]++
		} else {
			g.outVec[o.Src.ID]++
		}
	}
	return g
}

// reset empties the partition and starts it at op start.
func (g *grower) reset(start int) {
	g.start, g.end = start, start
	g.stages, g.vecIns, g.scalIns, g.vecOuts, g.scalOuts, g.maxLive = 0, 0, 0, 0, 0, 0
}

// grow adds op end to the partition and returns the partition's metrics.
func (g *grower) grow() PhysPCU {
	u, op := g.u, g.u.Ops[g.end]
	g.stages += opStageCost(op, u.Lanes)
	for _, a := range op.Args {
		g.use(a)
	}
	g.vecOuts += int(g.outVec[g.end])
	g.scalOuts += int(g.outScal[g.end])
	g.end++
	if g.end == len(u.Ops) {
		for _, o := range u.Outs {
			g.use(o.Src)
		}
		g.vecOuts += g.inVec
		g.scalOuts += g.inScal
	}
	// Results defined here are live while a later position still needs
	// them, and cross out once each when a later partition's op does.
	live, crossOut, end := 0, 0, int32(g.end)
	for id := g.start; id < g.end; id++ {
		if g.lastUse[id] >= end {
			live++
		}
		if g.lastOpUse[id] >= end {
			crossOut++
		}
	}
	g.maxLive = max(g.maxLive, live)
	return PhysPCU{
		Ops:        u.Ops[g.start:g.end],
		StagesUsed: g.stages,
		MaxLive:    g.maxLive + g.vecIns,
		VecIns:     g.vecIns,
		ScalIns:    g.scalIns,
		VecOuts:    g.vecOuts + crossOut,
		ScalOuts:   g.scalOuts,
	}
}

// use counts the first use of a in the partition that makes it an input:
// an input stream, or a result of an earlier partition.
func (g *grower) use(a Operand) {
	mark := int32(g.start + 1)
	switch a.Kind {
	case OpResult:
		if a.ID < g.start && g.resMark[a.ID] != mark {
			g.resMark[a.ID] = mark
			g.vecIns++
		}
	case VecIn:
		if g.vecMark[a.ID] != mark {
			g.vecMark[a.ID] = mark
			g.vecIns++
		}
	case ScalIn:
		if g.scalMark[a.ID] != mark {
			g.scalMark[a.ID] = mark
			g.scalIns++
		}
	}
}

// outCounts returns program-level vector/scalar outputs sourced from ops in
// [start,end), or from inputs when the unit has no ops in range and is the
// last partition.
func outCounts(u *VirtualPCU, start, end int) (vec, scal int) {
	for _, o := range u.Outs {
		inRange := false
		switch o.Src.Kind {
		case OpResult:
			inRange = o.Src.ID >= start && o.Src.ID < end
		default:
			// Input-sourced outputs leave from the final partition.
			inRange = end >= len(u.Ops)
		}
		if !inRange {
			continue
		}
		if o.Kind == OutScalReg {
			scal++
		} else {
			vec++
		}
	}
	return vec, scal
}

func violates(part *PhysPCU, p arch.PCUParams) bool {
	return part.StagesUsed > p.Stages ||
		part.MaxLive > p.Registers ||
		part.VecIns > p.VectorIns ||
		part.ScalIns > p.ScalarIns ||
		part.VecOuts > p.VectorOuts ||
		part.ScalOuts > p.ScalarOuts
}

func checkPart(u *VirtualPCU, part *PhysPCU, p arch.PCUParams) error {
	if violates(part, p) {
		return fmt.Errorf("compiler: %s: unit violates PCU constraints (stages=%d live=%d vecIn=%d scalIn=%d vecOut=%d scalOut=%d vs %+v)",
			originTag(u.Name, u.Origin), part.StagesUsed, part.MaxLive, part.VecIns, part.ScalIns, part.VecOuts, part.ScalOuts, p)
	}
	return nil
}

// PartitionPMU computes the physical PMUs and supporting PCUs one virtual
// PMU needs under the given parameters.
func PartitionPMU(m *VirtualPMU, p arch.Params) (PartPMU, error) {
	capacityWords := p.PMU.BankKB * 1024 / 4 * p.PMU.Banks
	need := m.Mem.Size * m.NBuf
	copies := (need + capacityWords - 1) / capacityWords
	if copies < 1 {
		copies = 1
	}
	// Concurrent read streams beyond the PMU's vector outputs require
	// content duplication across PMUs.
	if m.MaxConcurrentReads > p.PMU.VectorOuts && p.PMU.VectorOuts > 0 {
		dup := (m.MaxConcurrentReads + p.PMU.VectorOuts - 1) / p.PMU.VectorOuts
		copies *= dup
	}
	support := 0
	addrOps := m.AddrOps + m.RMWOps
	if addrOps > p.PMU.Stages {
		support = (addrOps - p.PMU.Stages + p.PCU.Stages - 1) / p.PCU.Stages
	}
	return PartPMU{V: m, Copies: copies, SupportPCUs: support}, nil
}

// Partition maps every virtual unit to physical units under params.
func Partition(v *Virtual, params arch.Params) (*Partitioned, error) {
	out := &Partitioned{Virtual: v}
	for _, u := range v.PCUs {
		parts, err := PartitionPCU(u, params.PCU)
		if err != nil {
			return nil, err
		}
		pp := PartPCU{V: u, Parts: parts}
		out.PCUs = append(out.PCUs, pp)
		out.TotalPCUs += pp.Units()
		for _, part := range parts {
			slots := 0
			for _, op := range part.Ops {
				slots += opStageCost(op, u.Lanes) * u.Lanes
			}
			if len(part.Ops) == 0 {
				slots = u.Lanes // pass-through stage
			}
			out.UsedFUSlots += int64(slots * u.Unroll)
		}
	}
	for _, m := range v.PMUs {
		pm, err := PartitionPMU(m, params)
		if err != nil {
			return nil, err
		}
		out.PMUs = append(out.PMUs, pm)
		out.TotalPMUs += pm.Units()
		out.TotalPCUs += pm.SupportPCUs * pm.V.Unroll
	}
	for _, ag := range v.AGs {
		out.TotalAGs += ag.Unroll
	}
	return out, nil
}
