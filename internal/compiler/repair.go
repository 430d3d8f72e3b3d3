package compiler

import (
	"context"
	"fmt"
	"sort"

	"plasticine/internal/arch"
	"plasticine/internal/fault"
	"plasticine/internal/metrics"
)

// RepairReport counts what a mapping repair changed, for recovery-overhead
// accounting (the reconfiguration cost scales with these numbers).
type RepairReport struct {
	MovedPCUs     int  // PCU netlist nodes re-placed off newly dead tiles
	MovedPMUs     int  // PMU netlist nodes re-placed off newly dead tiles
	ReroutedEdges int  // routes patched around dead switches or moved units
	FullRecompile bool // incremental repair failed; the whole mapping was redone
}

// MovedUnits is the total number of re-placed units.
func (r *RepairReport) MovedUnits() int { return r.MovedPCUs + r.MovedPMUs }

func (r *RepairReport) String() string {
	mode := "incremental"
	if r.FullRecompile {
		mode = "full recompile"
	}
	return fmt.Sprintf("repair (%s): %d unit(s) moved (%d PCU, %d PMU), %d route(s) redone",
		mode, r.MovedUnits(), r.MovedPCUs, r.MovedPMUs, r.ReroutedEdges)
}

// Repair updates a compiled mapping after new faults appear mid-run,
// following a three-rung decision ladder:
//
//  1. Incremental: re-place only the units sitting on newly dead tiles
//     (every healthy assignment is preserved) and re-route only the edges
//     that cross a dead switch or touch a moved unit.
//  2. Full recompile: if no healthy free slot or detour exists, recompile
//     the whole program against the extended fault plan.
//  3. Structured failure: if even a full recompile cannot fit, the error
//     wraps ErrInsufficient (or ErrNoRoute) for the caller to surface.
//
// plan must be the extended fault plan (prior faults plus the new ones); it
// replaces m.Faults. The simulator-facing timing maps (Leaves, Mems) are
// deliberately left untouched on the incremental path so an in-flight
// activity graph remains valid; detour latency is second-order next to the
// reconfiguration stall and is absorbed into the recovery penalty. ctx
// bounds the full recompile: a canceled one fails with an error wrapping
// ctx.Err(). The repair records a span under ctx's current one (during a
// run, the sim span), with the recompile's passes below it.
func Repair(ctx context.Context, m *Mapping, plan *fault.Plan) (_ *RepairReport, err error) {
	ctx, sp := metrics.Start(ctx, "repair")
	rep := &RepairReport{}
	defer func() {
		m.LastRepair = rep
		mode := int64(0)
		if rep.FullRecompile {
			mode = 1
		}
		sp.EndWith(rep.String(), map[string]int64{
			"moved_pcus": int64(rep.MovedPCUs), "moved_pmus": int64(rep.MovedPMUs),
			"rerouted_edges": int64(rep.ReroutedEdges), "full_recompile": mode,
		}, err)
	}()
	nl := m.Netlist
	p := m.Params

	// 1. Which units sit on tiles the extended plan kills?
	var displaced []int
	occupied := map[[2]int]bool{}
	for i, nd := range nl.Nodes {
		switch nd.Kind {
		case NodePCU:
			if plan.PCUDisabled(nd.X, nd.Y) {
				displaced = append(displaced, i)
				continue
			}
		case NodePMU:
			if plan.PMUDisabled(nd.X, nd.Y) {
				displaced = append(displaced, i)
				continue
			}
		}
		occupied[[2]int{nd.X, nd.Y}] = true
	}

	moved := map[int]bool{}
	if len(displaced) > 0 {
		if ok := replaceDisplaced(nl, p, plan, displaced, occupied, moved, rep); !ok {
			return fullRecompile(ctx, m, plan, rep)
		}
	}

	// 2. Patch routes that cross a newly dead switch or touch a moved unit.
	if m.Routes != nil {
		if ok := patchRoutes(m, plan, moved, rep); !ok {
			return fullRecompile(ctx, m, plan, rep)
		}
	}
	m.Faults = plan
	return rep, nil
}

// replaceDisplaced greedily re-places each displaced node onto the nearest
// free healthy slot of its kind (min Manhattan cost to its already-placed
// neighbours — the same cost the original placer used). Deterministic:
// displaced nodes go in netlist order; candidate slots are scanned
// centre-out in a fixed order.
func replaceDisplaced(nl *Netlist, p arch.Params, plan *fault.Plan, displaced []int,
	occupied map[[2]int]bool, moved map[int]bool, rep *RepairReport) bool {
	cols, rows := p.Chip.Cols, p.Chip.Rows
	cx, cy := cols/2, rows/2
	type slot struct{ x, y int }
	var free [2][]slot // indexed by NodeKind (NodePCU, NodePMU)
	var all []slot
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			all = append(all, slot{x, y})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		di := absInt(all[i].x-cx) + absInt(all[i].y-cy)
		dj := absInt(all[j].x-cx) + absInt(all[j].y-cy)
		if di != dj {
			return di < dj
		}
		if all[i].y != all[j].y {
			return all[i].y < all[j].y
		}
		return all[i].x < all[j].x
	})
	for _, s := range all {
		if occupied[[2]int{s.x, s.y}] {
			continue
		}
		if (s.x+s.y)%2 == 0 {
			if !plan.PCUDisabled(s.x, s.y) {
				free[NodePCU] = append(free[NodePCU], s)
			}
		} else if !plan.PMUDisabled(s.x, s.y) {
			free[NodePMU] = append(free[NodePMU], s)
		}
	}
	for _, i := range displaced {
		nd := nl.Nodes[i]
		cand := free[nd.Kind]
		best, bestCost := -1, 1<<30
		for ci, s := range cand {
			cost, n := 0, 0
			for _, e := range nd.Edges {
				o := nl.Nodes[e]
				if moved[e] || !plan.PCUDisabled(o.X, o.Y) && !plan.PMUDisabled(o.X, o.Y) {
					cost += absInt(o.X-s.x) + absInt(o.Y-s.y)
					n++
				}
			}
			if n == 0 {
				cost = absInt(s.x-cx) + absInt(s.y-cy)
			}
			if cost < bestCost {
				best, bestCost = ci, cost
			}
		}
		if best < 0 {
			return false // no free healthy slot: fall back
		}
		s := cand[best]
		free[nd.Kind] = append(cand[:best:best], cand[best+1:]...)
		nd.X, nd.Y = s.x, s.y
		moved[i] = true
		if nd.Kind == NodePCU {
			rep.MovedPCUs++
		} else {
			rep.MovedPMUs++
		}
	}
	return true
}

// patchRoutes re-routes only the edges that cross a dead switch or end at a
// moved unit, updating per-link usage incrementally.
func patchRoutes(m *Mapping, plan *fault.Plan, moved map[int]bool, rep *RepairReport) bool {
	nl, rt := m.Netlist, m.Routes
	linkKey := func(a, b [2]int) string {
		return fmt.Sprintf("%d,%d>%d,%d", a[0], a[1], b[0], b[1])
	}
	needsPatch := func(r Route) bool {
		if moved[r.From] || moved[r.To] {
			return true
		}
		for _, h := range r.Hops[1:max(len(r.Hops)-1, 1)] {
			if plan.SwitchDisabled(h[0], h[1]) {
				return true
			}
		}
		return false
	}
	for ri := range rt.Routes {
		r := rt.Routes[ri]
		if !needsPatch(r) {
			continue
		}
		from, to := nl.Nodes[r.From], nl.Nodes[r.To]
		var hops [][2]int
		if plan.HasSwitchFaults() {
			var ok bool
			hops, ok = detourRoute(from.X, from.Y, to.X, to.Y, m.Params, plan)
			if !ok {
				return false // disconnected: fall back to full recompile
			}
		} else {
			hops = xyRoute(from.X, from.Y, to.X, to.Y)
		}
		for h := 1; h < len(r.Hops); h++ {
			k := linkKey(r.Hops[h-1], r.Hops[h])
			if rt.LinkUse[k]--; rt.LinkUse[k] <= 0 {
				delete(rt.LinkUse, k)
			}
		}
		for h := 1; h < len(hops); h++ {
			rt.LinkUse[linkKey(hops[h-1], hops[h])]++
		}
		rt.Routes[ri].Hops = hops
		rep.ReroutedEdges++
	}
	return true
}

// fullRecompile is rung two of the ladder: recompile the whole program
// against the extended plan and splice the result into m. The returned
// counts cover every unit whose position changed. The recompile's span
// nests under ctx's current one, the repair's.
func fullRecompile(ctx context.Context, m *Mapping, plan *fault.Plan, rep *RepairReport) (*RepairReport, error) {
	rep.FullRecompile = true
	fresh, err := CompileOpts(ctx, m.Prog, Options{Params: m.Params, Faults: plan})
	if err != nil {
		return rep, err // wraps ErrInsufficient / ErrNoRoute, or ctx.Err()
	}
	rep.MovedPCUs, rep.MovedPMUs, rep.ReroutedEdges = 0, 0, len(fresh.Routes.Routes)
	if len(fresh.Netlist.Nodes) == len(m.Netlist.Nodes) {
		for i, nd := range fresh.Netlist.Nodes {
			old := m.Netlist.Nodes[i]
			if nd.X != old.X || nd.Y != old.Y {
				switch nd.Kind {
				case NodePCU:
					rep.MovedPCUs++
				case NodePMU:
					rep.MovedPMUs++
				}
			}
		}
	} else {
		// Different expansion: count every unit as moved.
		for _, nd := range fresh.Netlist.Nodes {
			switch nd.Kind {
			case NodePCU:
				rep.MovedPCUs++
			case NodePMU:
				rep.MovedPMUs++
			}
		}
	}
	m.Virtual, m.Part, m.Netlist = fresh.Virtual, fresh.Part, fresh.Netlist
	m.Routes, m.Faults = fresh.Routes, plan
	m.Util = fresh.Util
	// Leaves/Mems keep their original pointers' keys (same *dhdl.Program),
	// but the fresh compile recomputed depths against the new placement.
	m.Leaves, m.Mems = fresh.Leaves, fresh.Mems
	return rep, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
