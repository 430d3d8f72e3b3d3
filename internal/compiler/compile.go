package compiler

import (
	"context"
	"fmt"
	"strings"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
	"plasticine/internal/metrics"
)

// LeafMap is the simulator-facing mapping of one leaf controller.
type LeafMap struct {
	// PCUs is the number of chained physical PCUs (1 for transfers' AGs).
	PCUs int
	// Lanes is the SIMD width of the leaf.
	Lanes int
	// Unroll is the outer-parallelization duplication factor.
	Unroll int
	// PipelineDepth is the total latency in cycles from operand arrival to
	// result: PMU read latency + compute stages + inter-unit hops.
	PipelineDepth int
	// II is the initiation interval in cycles per vector firing.
	II int
}

// MemMap is the mapping of one SRAM.
type MemMap struct {
	PMUs  int // physical PMUs holding (pieces/copies of) the buffer
	NBuf  int
	Banks int
}

// Utilization summarises fabric occupancy, matching Table 7's columns.
type Utilization struct {
	PCUs, PMUs, AGs int
	PCUFrac         float64 // fraction of chip PCUs configured
	PMUFrac         float64
	AGFrac          float64
	FUFrac          float64 // fraction of FU slots in used PCUs doing work
	RegFrac         float64 // fraction of pipeline registers holding live values
}

// Mapping is the compiled form of a program: the "bitstream"-level
// description the simulator interprets plus resource accounting.
type Mapping struct {
	Prog    *dhdl.Program
	Params  arch.Params
	Virtual *Virtual
	Part    *Partitioned
	Netlist *Netlist

	// Routes is the switch-fabric routing of every netlist edge; under a
	// fault plan, affected routes detour around disabled switches.
	Routes *RouteTable
	// Faults is the fault plan the program was mapped under (nil = pristine).
	Faults *fault.Plan

	Leaves map[*dhdl.Controller]*LeafMap
	Mems   map[*dhdl.SRAM]*MemMap
	Util   Utilization
}

// pmuReadLatency is the cycles from read-address issue to data on the
// vector output: the PMU address datapath plus SRAM access.
func pmuReadLatency(p arch.Params) int { return p.PMU.Stages + 2 }

// Options bundles everything the compile pipeline needs besides the
// program itself — the single configuration surface behind CompileOpts.
type Options struct {
	// Params configures the target fabric.
	Params arch.Params
	// Faults is the fault plan to compile around: the placer skips disabled
	// tiles and routes detour disabled switches. Nil means a pristine
	// fabric.
	Faults *fault.Plan
}

// CompileOpts is the canonical compile entry point: it runs the full flow —
// allocate virtual units, partition them into physical units, place and
// route, and derive per-leaf timing for the simulator — under one Options
// struct, honouring ctx between passes so a parallel sweep can cancel
// in-flight compiles. It fails if the program cannot be expressed on the
// fabric (constraint violations) or does not fit (too few units).
func CompileOpts(ctx context.Context, p *dhdl.Program, opts Options) (*Mapping, error) {
	ctx, sp := metrics.Start(ctx, "compile")
	m, err := pipeline(ctx, p, opts)
	sp.EndWith(p.Name, nil, err)
	return m, err
}

// pipeline is the compile body: it records each pass as a span under ctx's
// current one (the caller's compile span), failing pass included. It checks
// ctx at every pass boundary: a canceled compile returns ctx's error
// wrapped with the program name.
func pipeline(ctx context.Context, p *dhdl.Program, opts Options) (*Mapping, error) {
	params, plan := opts.Params, opts.Faults
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compiler: %s: %w", p.Name, err)
	}
	_, sp := metrics.Start(ctx, "validate")
	err := params.Validate()
	sp.EndWith(params.String(), nil, err)
	if err != nil {
		return nil, err
	}

	_, sp = metrics.Start(ctx, "allocate")
	v, err := Allocate(p)
	var allocDetail string
	var allocStats map[string]int64
	if err == nil {
		allocDetail = fmt.Sprintf("%d vPCUs, %d vPMUs, %d vAGs", len(v.PCUs), len(v.PMUs), len(v.AGs))
		allocStats = map[string]int64{
			"virtual_pcus": int64(len(v.PCUs)), "virtual_pmus": int64(len(v.PMUs)),
			"virtual_ags": int64(len(v.AGs)), "outer_ctrls": int64(v.OuterCtrls),
		}
	}
	sp.EndWith(allocDetail, allocStats, err)
	if err != nil {
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compiler: %s: %w", p.Name, err)
	}
	_, sp = metrics.Start(ctx, "partition")
	part, err := Partition(v, params)
	var partDetail string
	var partStats map[string]int64
	if err == nil {
		partDetail = fmt.Sprintf("%d PCUs, %d PMUs, %d AGs", part.TotalPCUs, part.TotalPMUs, part.TotalAGs)
		partStats = map[string]int64{
			"phys_pcus": int64(part.TotalPCUs), "phys_pmus": int64(part.TotalPMUs),
			"phys_ags": int64(part.TotalAGs), "used_fu_slots": part.UsedFUSlots,
		}
	}
	sp.EndWith(partDetail, partStats, err)
	if err != nil {
		return nil, err
	}

	_, sp = metrics.Start(ctx, "fit-check")
	healthyPCUs := params.NumPCUs() - plan.NumDisabledPCUs()
	healthyPMUs := params.NumPMUs() - plan.NumDisabledPMUs()
	fitStats := map[string]int64{
		"need_pcus": int64(part.TotalPCUs), "have_pcus": int64(healthyPCUs),
		"need_pmus": int64(part.TotalPMUs), "have_pmus": int64(healthyPMUs),
		"need_ags": int64(part.TotalAGs), "have_ags": int64(params.NumAGs()),
	}
	var fitErr error
	switch {
	case part.TotalPCUs > healthyPCUs:
		fitErr = &InsufficientError{Resource: "PCU", Need: part.TotalPCUs,
			Have: healthyPCUs, Disabled: plan.NumDisabledPCUs()}
	case part.TotalPMUs > healthyPMUs:
		fitErr = &InsufficientError{Resource: "PMU", Need: part.TotalPMUs,
			Have: healthyPMUs, Disabled: plan.NumDisabledPMUs()}
	case part.TotalAGs > params.NumAGs():
		fitErr = &InsufficientError{Resource: "AG", Need: part.TotalAGs, Have: params.NumAGs()}
	}
	sp.EndWith(fmt.Sprintf("PCU %d/%d, PMU %d/%d, AG %d/%d", part.TotalPCUs, healthyPCUs,
		part.TotalPMUs, healthyPMUs, part.TotalAGs, params.NumAGs()), fitStats, fitErr)
	if fitErr != nil {
		return nil, fitErr
	}

	_, sp = metrics.Start(ctx, "netlist")
	nl := BuildNetlist(part)
	edges := 0
	for i, nd := range nl.Nodes {
		for _, j := range nd.Edges {
			if j > i {
				edges++
			}
		}
	}
	sp.EndWith(fmt.Sprintf("%d nodes, %d edges", len(nl.Nodes), edges),
		map[string]int64{"nodes": int64(len(nl.Nodes)), "edges": int64(edges)}, nil)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compiler: %s: %w", p.Name, err)
	}
	_, sp = metrics.Start(ctx, "place")
	err = PlaceWithFaults(nl, params, plan)
	var plStats map[string]int64
	var plDetail string
	if err == nil {
		plStats = placeStats(nl)
		plDetail = fmt.Sprintf("wirelength %d, worst edge %d hops",
			plStats["wirelength"], plStats["worst_edge_hops"])
	}
	sp.EndWith(plDetail, plStats, err)
	if err != nil {
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compiler: %s: %w", p.Name, err)
	}
	_, sp = metrics.Start(ctx, "route")
	routes, err := RouteAllWithFaults(nl, params, plan)
	var rtStats map[string]int64
	var rtDetail string
	if err == nil {
		rtStats = routeStats(routes)
		rtDetail = fmt.Sprintf("%d routes, %.2f avg hops, max link use %d",
			len(routes.Routes), routes.AvgHops(), routes.MaxLinkUse())
	}
	sp.EndWith(rtDetail, rtStats, err)
	if err != nil {
		return nil, err
	}
	_, sp = metrics.Start(ctx, "timing")
	// Hop distance between two placed nodes: Manhattan on a pristine
	// fabric; the routed (detoured) path length under switch faults.
	edgeHops := map[[2]int]int{}
	if plan.HasSwitchFaults() {
		for _, r := range routes.Routes {
			a, b := r.From, r.To
			if a > b {
				a, b = b, a
			}
			edgeHops[[2]int{a, b}] = len(r.Hops) - 1
		}
	}
	hopLen := func(ai, bi int) int {
		if plan.HasSwitchFaults() {
			a, b := ai, bi
			if a > b {
				a, b = b, a
			}
			if h, ok := edgeHops[[2]int{a, b}]; ok {
				return h
			}
		}
		return RouteHops(nl.Nodes[ai], nl.Nodes[bi])
	}

	m := &Mapping{
		Prog:    p,
		Params:  params,
		Virtual: v,
		Part:    part,
		Netlist: nl,
		Routes:  routes,
		Faults:  plan,
		Leaves:  map[*dhdl.Controller]*LeafMap{},
		Mems:    map[*dhdl.SRAM]*MemMap{},
	}
	for _, pc := range part.PCUs {
		chain := nl.LeafChain[pc.V.Leaf]
		depth := pmuReadLatency(params)
		stages := 0
		for _, part := range pc.Parts {
			stages += part.StagesUsed
		}
		depth += stages
		for i := 1; i < len(chain); i++ {
			depth += hopLen(chain[i-1], chain[i])
		}
		// Input route: longest hop from any source PMU to the first PCU
		// adds registered-switch latency ahead of the pipeline.
		if len(chain) > 0 {
			maxHop := 0
			for _, vi := range pc.V.VecIns {
				if vi.SRAM != nil {
					if mn, ok := nl.MemNode[vi.SRAM]; ok {
						if h := hopLen(chain[0], mn); h > maxHop {
							maxHop = h
						}
					}
				}
			}
			depth += maxHop
		}
		// Initiation interval: bank conflicts and sequentialised random
		// writes throttle the firing rate below one vector per cycle.
		ii := 1
		for _, ra := range pc.V.ReadAccess {
			if ra.Affine {
				if f := StrideConflictFactor(ra.Stride, params.PMU.Banks); f > ii {
					ii = f
				}
			}
			// Non-affine reads are served by duplication-mode banks at
			// full rate.
		}
		for _, wa := range pc.V.WriteAccess {
			f := randomWriteFactor
			if wa.Affine {
				f = StrideConflictFactor(wa.Stride, params.PMU.Banks)
			}
			if pc.V.Lanes == 1 {
				f = 1 // a single lane never conflicts with itself
			}
			if f > ii {
				ii = f
			}
		}
		m.Leaves[pc.V.Leaf] = &LeafMap{
			PCUs:          len(pc.Parts),
			Lanes:         pc.V.Lanes,
			Unroll:        pc.V.Unroll,
			PipelineDepth: depth,
			II:            ii,
		}
	}
	for _, ag := range v.AGs {
		m.Leaves[ag.Leaf] = &LeafMap{PCUs: 0, Lanes: 1, Unroll: ag.Unroll, PipelineDepth: 4, II: 1}
	}
	for _, pm := range part.PMUs {
		m.Mems[pm.V.Mem] = &MemMap{PMUs: pm.Units(), NBuf: pm.V.NBuf, Banks: params.PMU.Banks}
	}
	m.Util = computeUtil(part, params)
	maxDepth, maxII := 0, 0
	for _, lm := range m.Leaves {
		if lm.PipelineDepth > maxDepth {
			maxDepth = lm.PipelineDepth
		}
		if lm.II > maxII {
			maxII = lm.II
		}
	}
	sp.EndWith(fmt.Sprintf("%d leaves, max depth %d, max II %d", len(m.Leaves), maxDepth, maxII),
		map[string]int64{
			"leaves": int64(len(m.Leaves)), "max_pipeline_depth": int64(maxDepth),
			"max_ii": int64(maxII), "util_fu_pct": int64(m.Util.FUFrac * 100),
			"util_pcu_pct": int64(m.Util.PCUFrac * 100), "util_pmu_pct": int64(m.Util.PMUFrac * 100),
		}, nil)
	return m, nil
}

func computeUtil(part *Partitioned, params arch.Params) Utilization {
	u := Utilization{
		PCUs: part.TotalPCUs,
		PMUs: part.TotalPMUs,
		AGs:  part.TotalAGs,
	}
	u.PCUFrac = float64(part.TotalPCUs) / float64(params.NumPCUs())
	u.PMUFrac = float64(part.TotalPMUs) / float64(params.NumPMUs())
	u.AGFrac = float64(part.TotalAGs) / float64(params.NumAGs())
	if part.TotalPCUs > 0 {
		slotsPerPCU := int64(params.PCU.Lanes * params.PCU.Stages)
		u.FUFrac = float64(part.UsedFUSlots) / float64(int64(part.TotalPCUs)*slotsPerPCU)
		if u.FUFrac > 1 {
			u.FUFrac = 1
		}
	}
	// Register occupancy: live values vs available registers in used PCUs.
	var liveSum, regCap int64
	for _, pc := range part.PCUs {
		for _, ph := range pc.Parts {
			liveSum += int64(ph.MaxLive*ph.StagesUsed*params.PCU.Lanes) * int64(pc.V.Unroll)
			regCap += int64(params.PCU.Stages*params.PCU.Registers*params.PCU.Lanes) * int64(pc.V.Unroll)
		}
	}
	if regCap > 0 {
		u.RegFrac = float64(liveSum) / float64(regCap)
		if u.RegFrac > 1 {
			u.RegFrac = 1
		}
	}
	return u
}

// Summary renders a human-readable mapping report.
func (m *Mapping) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s on %s\n", m.Prog.Name, m.Params.String())
	fmt.Fprintf(&b, "  PCUs %d/%d (%.1f%%)  PMUs %d/%d (%.1f%%)  AGs %d/%d (%.1f%%)  FU %.1f%%\n",
		m.Util.PCUs, m.Params.NumPCUs(), 100*m.Util.PCUFrac,
		m.Util.PMUs, m.Params.NumPMUs(), 100*m.Util.PMUFrac,
		m.Util.AGs, m.Params.NumAGs(), 100*m.Util.AGFrac,
		100*m.Util.FUFrac)
	for _, pc := range m.Part.PCUs {
		lm := m.Leaves[pc.V.Leaf]
		fmt.Fprintf(&b, "  compute %-20s %d part(s) x%d unroll, %d lanes, depth %d  <- %s\n",
			pc.V.Name, len(pc.Parts), pc.V.Unroll, pc.V.Lanes, lm.PipelineDepth, pc.V.Origin)
	}
	for _, pm := range m.Part.PMUs {
		fmt.Fprintf(&b, "  memory  %-20s %d PMU(s), %d-buffered, %d support PCU(s)  <- %s\n",
			pm.V.Name, pm.Units(), pm.V.NBuf, pm.SupportPCUs, pm.V.Origin)
	}
	return b.String()
}
