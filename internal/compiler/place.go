package compiler

import (
	"errors"
	"fmt"
	"sort"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
)

// ErrInsufficient is wrapped by every "design does not fit" placement
// failure, including fits that fail only because a fault plan disabled
// tiles. Callers distinguish capacity problems from programming errors with
// errors.Is(err, ErrInsufficient).
var ErrInsufficient = errors.New("compiler: insufficient healthy resources")

// InsufficientError reports exactly which resource ran out during
// placement, and how much of the shortfall is due to faulted tiles.
type InsufficientError struct {
	Resource string // "PCU", "PMU", or "AG"
	Need     int    // units the design requires
	Have     int    // healthy units available
	Disabled int    // units removed by the fault plan
}

func (e *InsufficientError) Error() string {
	if e.Disabled > 0 {
		return fmt.Sprintf("%v: design needs %d %ss, %d healthy on chip (%d disabled by fault plan)",
			ErrInsufficient, e.Need, e.Resource, e.Have, e.Disabled)
	}
	return fmt.Sprintf("%v: design needs %d %ss, chip has %d", ErrInsufficient, e.Need, e.Resource, e.Have)
}

func (e *InsufficientError) Unwrap() error { return ErrInsufficient }

// NodeKind is the physical resource type a netlist node occupies.
type NodeKind int

const (
	// NodePCU occupies a Pattern Compute Unit slot.
	NodePCU NodeKind = iota
	// NodePMU occupies a Pattern Memory Unit slot.
	NodePMU
	// NodeAG occupies an address generator at the chip edge.
	NodeAG
)

// Node is one physical unit instance awaiting placement.
type Node struct {
	Kind NodeKind
	Name string
	// Origin is the source-level provenance inherited from the virtual unit
	// this instance was expanded from (never empty after BuildNetlist).
	Origin string
	Edges  []int // indices of connected nodes

	X, Y int // assigned position (AGs: X is -1 or Cols)
}

// Netlist is the physical-unit graph of a partitioned program.
type Netlist struct {
	Nodes []*Node

	// LeafChain maps each leaf controller to its chain of PCU node
	// indices (first unrolled copy).
	LeafChain map[*dhdl.Controller][]int
	// MemNode maps each SRAM to its primary PMU node index.
	MemNode map[*dhdl.SRAM]int
	// AGNode maps each transfer leaf to its AG node index.
	AGNode map[*dhdl.Controller]int
}

// BuildNetlist expands a partitioned program into unit instances with
// connectivity edges.
func BuildNetlist(part *Partitioned) *Netlist {
	nl := &Netlist{
		LeafChain: map[*dhdl.Controller][]int{},
		MemNode:   map[*dhdl.SRAM]int{},
		AGNode:    map[*dhdl.Controller]int{},
	}
	addNode := func(k NodeKind, name, origin string) int {
		if origin == "" {
			origin = name
		}
		nl.Nodes = append(nl.Nodes, &Node{Kind: k, Name: name, Origin: origin})
		return len(nl.Nodes) - 1
	}
	connect := func(a, b int) {
		nl.Nodes[a].Edges = append(nl.Nodes[a].Edges, b)
		nl.Nodes[b].Edges = append(nl.Nodes[b].Edges, a)
	}

	// PMUs first so compute units can connect to them.
	for _, pm := range part.PMUs {
		for u := 0; u < pm.V.Unroll; u++ {
			var prev int = -1
			for c := 0; c < pm.Copies; c++ {
				id := addNode(NodePMU, fmt.Sprintf("%s.pmu%d.%d", pm.V.Name, u, c), pm.V.Origin)
				if u == 0 && c == 0 {
					nl.MemNode[pm.V.Mem] = id
				}
				if prev >= 0 {
					connect(prev, id)
				}
				prev = id
			}
			for s := 0; s < pm.SupportPCUs; s++ {
				id := addNode(NodePCU, fmt.Sprintf("%s.addr%d.%d", pm.V.Name, u, s), pm.V.Origin)
				if first, ok := nl.MemNode[pm.V.Mem]; ok {
					connect(first, id)
				}
			}
		}
	}
	for _, pc := range part.PCUs {
		for u := 0; u < pc.V.Unroll; u++ {
			var chain []int
			prev := -1
			for k := range pc.Parts {
				id := addNode(NodePCU, fmt.Sprintf("%s.pcu%d.%d", pc.V.Name, u, k), pc.V.Origin)
				chain = append(chain, id)
				if prev >= 0 {
					connect(prev, id)
				}
				prev = id
			}
			if u == 0 {
				nl.LeafChain[pc.V.Leaf] = chain
			}
			// Connect first/last partition to the memories it touches.
			if len(chain) > 0 {
				for _, vi := range pc.V.VecIns {
					if vi.SRAM != nil {
						if mn, ok := nl.MemNode[vi.SRAM]; ok {
							connect(chain[0], mn)
						}
					}
				}
				for _, o := range pc.V.Outs {
					if o.SRAM != nil {
						if mn, ok := nl.MemNode[o.SRAM]; ok {
							connect(chain[len(chain)-1], mn)
						}
					}
				}
			}
		}
	}
	for _, ag := range part.Virtual.AGs {
		for u := 0; u < ag.Unroll; u++ {
			id := addNode(NodeAG, fmt.Sprintf("%s.ag%d", ag.Name, u), ag.Origin)
			if u == 0 {
				nl.AGNode[ag.Leaf] = id
			}
			x := ag.Leaf.Xfer
			for _, s := range []*dhdl.SRAM{x.SRAM, x.AddrMem, x.DataMem} {
				if s != nil {
					if mn, ok := nl.MemNode[s]; ok {
						connect(id, mn)
					}
				}
			}
		}
	}
	return nl
}

// slot is a PCU or PMU grid position.
type slot struct{ x, y int }

// freeSlots lists the grid slots left for PCUs and PMUs, indexed by
// NodeKind. PCUs and PMUs interleave in a checkerboard (Figure 5: PCUs where
// x+y is even); slots the plan disables or occupied holds are left out. Each
// list runs centre-out (Manhattan distance from the chip centre, then row,
// then column), so early nodes get central positions.
func freeSlots(p arch.Params, plan *fault.Plan, occupied map[[2]int]bool) [2][]slot {
	cols, rows := p.Chip.Cols, p.Chip.Rows
	cx, cy := cols/2, rows/2
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
	var free [2][]slot
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
	return free
}

// PlaceWithFaults assigns netlist nodes to grid slots: PCUs and PMUs take
// the checkerboard slots of freeSlots; AGs sit on the left/right chip edges.
// Placement is greedy: nodes in netlist order take the free slot of their
// type that minimises Manhattan distance to already-placed neighbours.
// Tiles the plan disables are never offered, so the placement re-allocates
// around them exactly as it fills a smaller chip; a nil plan disables none.
// Failures wrap ErrInsufficient with a per-resource shortfall breakdown.
func PlaceWithFaults(nl *Netlist, p arch.Params, plan *fault.Plan) error {
	cols, rows := p.Chip.Cols, p.Chip.Rows
	cx, cy := cols/2, rows/2
	free := freeSlots(p, plan, nil)
	pcuSlots, pmuSlots := free[NodePCU], free[NodePMU]
	// Fail fast with the full shortfall rather than opaquely mid-placement.
	var needPCU, needPMU, needAG int
	for _, nd := range nl.Nodes {
		switch nd.Kind {
		case NodePCU:
			needPCU++
		case NodePMU:
			needPMU++
		case NodeAG:
			needAG++
		}
	}
	if needPCU > len(pcuSlots) {
		return &InsufficientError{Resource: "PCU", Need: needPCU, Have: len(pcuSlots),
			Disabled: plan.NumDisabledPCUs()}
	}
	if needPMU > len(pmuSlots) {
		return &InsufficientError{Resource: "PMU", Need: needPMU, Have: len(pmuSlots),
			Disabled: plan.NumDisabledPMUs()}
	}
	if needAG > p.NumAGs() {
		return &InsufficientError{Resource: "AG", Need: needAG, Have: p.NumAGs()}
	}
	agLeft, agRight := p.Chip.AGsPerSide, p.Chip.AGsPerSide
	usedPCU := make([]bool, len(pcuSlots))
	usedPMU := make([]bool, len(pmuSlots))
	placed := make([]bool, len(nl.Nodes))
	agY := 0

	for idx, nd := range nl.Nodes {
		switch nd.Kind {
		case NodeAG:
			if agLeft > 0 {
				nd.X, nd.Y = -1, agY%rows
				agLeft--
			} else if agRight > 0 {
				nd.X, nd.Y = cols, agY%rows
				agRight--
			} else {
				return &InsufficientError{Resource: "AG", Need: needAG, Have: p.NumAGs()}
			}
			agY++
		case NodePCU, NodePMU:
			slots, used := pcuSlots, usedPCU
			if nd.Kind == NodePMU {
				slots, used = pmuSlots, usedPMU
			}
			best, bestCost := -1, 1<<30
			for i, s := range slots {
				if used[i] {
					continue
				}
				cost, nPlaced := 0, 0
				for _, e := range nd.Edges {
					if placed[e] {
						o := nl.Nodes[e]
						cost += absInt(o.X-s.x) + absInt(o.Y-s.y)
						nPlaced++
					}
				}
				if nPlaced == 0 {
					cost = absInt(s.x-cx) + absInt(s.y-cy)
				}
				if cost < bestCost {
					best, bestCost = i, cost
				}
			}
			if best < 0 {
				res, need, have := "PCU", needPCU, len(pcuSlots)
				if nd.Kind == NodePMU {
					res, need, have = "PMU", needPMU, len(pmuSlots)
				}
				dis := plan.NumDisabledPCUs()
				if nd.Kind == NodePMU {
					dis = plan.NumDisabledPMUs()
				}
				return &InsufficientError{Resource: res, Need: need, Have: have, Disabled: dis}
			}
			nd.X, nd.Y = slots[best].x, slots[best].y
			used[best] = true
		}
		placed[idx] = true
	}
	return nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// RouteHops returns the routing latency in switch hops between two placed
// nodes (X-Y dimension-ordered routing with registered links, Section 3.3).
func RouteHops(a, b *Node) int {
	return absInt(a.X-b.X) + absInt(a.Y-b.Y)
}
