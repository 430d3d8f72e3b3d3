package compiler

import (
	"errors"
	"fmt"

	"plasticine/internal/arch"
	"plasticine/internal/fault"
)

// ErrNoRoute is wrapped when a netlist edge cannot be routed because fault-
// disabled switches disconnect its endpoints.
var ErrNoRoute = errors.New("compiler: no route through healthy switches")

// NoRouteError identifies the unroutable edge, with the source-level
// origins of both endpoints so the failure can be reported against pattern
// nodes rather than physical coordinates alone.
type NoRouteError struct {
	From, To               string // node names
	FromOrigin, ToOrigin   string // endpoint provenance
	FromX, FromY, ToX, ToY int
}

func (e *NoRouteError) Error() string {
	return fmt.Sprintf("%v: %s (%d,%d) -> %s (%d,%d)", ErrNoRoute,
		e.From, e.FromX, e.FromY, e.To, e.ToX, e.ToY)
}

func (e *NoRouteError) Unwrap() error { return ErrNoRoute }

// Route is one static point-to-point connection through the switch fabric:
// dimension-ordered (X then Y), one registered switch hop per step
// (Section 3.3).
type Route struct {
	From, To int      // node indices
	Hops     [][2]int // switch coordinates visited, in order
}

// RouteTable holds every routed edge plus per-link usage.
type RouteTable struct {
	Routes []Route
	// LinkUse counts routes crossing each directed link, keyed by LinkKey.
	LinkUse map[string]int
}

// LinkKey names the directed link between adjacent switches a and b:
// "x1,y1>x2,y2".
func LinkKey(a, b [2]int) string {
	return fmt.Sprintf("%d,%d>%d,%d", a[0], a[1], b[0], b[1])
}

// MaxLinkUse returns the most-shared link's route count (static congestion:
// the vector network is statically allocated, so links carrying more than
// Capacity routes need time-multiplexing).
func (rt *RouteTable) MaxLinkUse() int {
	max := 0
	for _, n := range rt.LinkUse {
		if n > max {
			max = n
		}
	}
	return max
}

// AvgHops returns the mean route length in switch hops.
func (rt *RouteTable) AvgHops() float64 {
	if len(rt.Routes) == 0 {
		return 0
	}
	total := 0
	for _, r := range rt.Routes {
		total += len(r.Hops) - 1
	}
	return float64(total) / float64(len(rt.Routes))
}

// RouteAllWithFaults routes every netlist edge on the switch grid. AGs sit
// at x = -1 or x = Cols and enter the fabric through their row. With no
// switch faults (a nil plan included) every edge takes its X-Y
// dimension-ordered route; otherwise each edge detours around the disabled
// switches along the shortest healthy path (breadth-first, deterministic
// neighbour order). It fails (wrapping ErrNoRoute) when disabled switches
// disconnect an edge's endpoints.
func RouteAllWithFaults(nl *Netlist, p arch.Params, plan *fault.Plan) (*RouteTable, error) {
	rt := &RouteTable{LinkUse: map[string]int{}}
	seen := map[[2]int]bool{}
	faulty := plan.HasSwitchFaults()
	for i, nd := range nl.Nodes {
		for _, j := range nd.Edges {
			if j < i {
				continue // route each undirected edge once
			}
			key := [2]int{i, j}
			if seen[key] {
				continue
			}
			seen[key] = true
			to := nl.Nodes[j]
			var hops [][2]int
			if faulty {
				var ok bool
				hops, ok = detourRoute(nd.X, nd.Y, to.X, to.Y, p, plan)
				if !ok {
					return nil, &NoRouteError{From: nd.Name, To: to.Name,
						FromOrigin: nd.Origin, ToOrigin: to.Origin,
						FromX: nd.X, FromY: nd.Y, ToX: to.X, ToY: to.Y}
				}
			} else {
				hops = xyRoute(nd.X, nd.Y, to.X, to.Y)
			}
			r := Route{From: i, To: j, Hops: hops}
			rt.Routes = append(rt.Routes, r)
			for h := 1; h < len(r.Hops); h++ {
				rt.LinkUse[LinkKey(r.Hops[h-1], r.Hops[h])]++
			}
		}
	}
	return rt, nil
}

// detourRoute finds a shortest path on the switch grid from (x1,y1) to
// (x2,y2) avoiding fault-disabled switch sites. Endpoints are always usable
// (the unit's local switch port survives through-fabric switch faults).
// The grid spans x in [-1, Cols] to include the AG columns. BFS with a
// fixed neighbour order (+x, -x, +y, -y) keeps results deterministic.
func detourRoute(x1, y1, x2, y2 int, p arch.Params, plan *fault.Plan) ([][2]int, bool) {
	cols, rows := p.Chip.Cols, p.Chip.Rows
	w := cols + 2 // x offset by 1 to include AG columns at -1 and cols
	idx := func(x, y int) int { return (x + 1) + y*w }
	usable := func(x, y int) bool {
		if x < -1 || x > cols || y < 0 || y >= rows {
			return false
		}
		if x == x1 && y == y1 || x == x2 && y == y2 {
			return true
		}
		return !plan.SwitchDisabled(x, y)
	}
	if !usable(x1, y1) || !usable(x2, y2) {
		return nil, false
	}
	prev := make([]int, w*rows)
	for i := range prev {
		prev[i] = -2 // unvisited
	}
	start, goal := idx(x1, y1), idx(x2, y2)
	prev[start] = -1
	queue := []int{start}
	for len(queue) > 0 && prev[goal] == -2 {
		cur := queue[0]
		queue = queue[1:]
		cx, cy := cur%w-1, cur/w
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := cx+d[0], cy+d[1]
			if !usable(nx, ny) || prev[idx(nx, ny)] != -2 {
				continue
			}
			prev[idx(nx, ny)] = cur
			queue = append(queue, idx(nx, ny))
		}
	}
	if prev[goal] == -2 {
		return nil, false
	}
	var rev [][2]int
	for at := goal; at != -1; at = prev[at] {
		rev = append(rev, [2]int{at%w - 1, at / w})
	}
	hops := make([][2]int, len(rev))
	for i, h := range rev {
		hops[len(rev)-1-i] = h
	}
	return hops, true
}

// xyRoute walks X first, then Y.
func xyRoute(x1, y1, x2, y2 int) [][2]int {
	hops := [][2]int{{x1, y1}}
	step := func(d *int, target int) {
		if *d < target {
			*d++
		} else {
			*d--
		}
	}
	x, y := x1, y1
	for x != x2 {
		step(&x, x2)
		hops = append(hops, [2]int{x, y})
	}
	for y != y2 {
		step(&y, y2)
		hops = append(hops, [2]int{x, y})
	}
	return hops
}
