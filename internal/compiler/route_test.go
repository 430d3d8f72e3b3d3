package compiler

import (
	"testing"

	"plasticine/internal/arch"
)

func TestXYRoute(t *testing.T) {
	hops := xyRoute(0, 0, 3, 2)
	if len(hops) != 6 {
		t.Fatalf("route length %d, want 6 (manhattan 5 + start)", len(hops))
	}
	if hops[0] != [2]int{0, 0} || hops[len(hops)-1] != [2]int{3, 2} {
		t.Errorf("endpoints wrong: %v", hops)
	}
	// X first, then Y.
	if hops[1] != [2]int{1, 0} || hops[3] != [2]int{3, 0} || hops[4] != [2]int{3, 1} {
		t.Errorf("not dimension-ordered: %v", hops)
	}
	// Degenerate route: same point.
	if got := xyRoute(2, 2, 2, 2); len(got) != 1 {
		t.Errorf("self-route length %d, want 1", len(got))
	}
	// Negative direction.
	back := xyRoute(3, 2, 0, 0)
	if back[len(back)-1] != [2]int{0, 0} {
		t.Errorf("reverse route broken: %v", back)
	}
}

func TestRouteAllCoversEdges(t *testing.T) {
	m := dotMapping(t)
	rt, err := RouteAllWithFaults(m.Netlist, m.Params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Routes) == 0 {
		t.Fatal("no routes")
	}
	// Every route connects the placed endpoints.
	for _, r := range rt.Routes {
		a, b := m.Netlist.Nodes[r.From], m.Netlist.Nodes[r.To]
		first, last := r.Hops[0], r.Hops[len(r.Hops)-1]
		if first != [2]int{a.X, a.Y} || last != [2]int{b.X, b.Y} {
			t.Errorf("route %d-%d endpoints %v..%v, nodes at (%d,%d)/(%d,%d)",
				r.From, r.To, first, last, a.X, a.Y, b.X, b.Y)
		}
	}
	if rt.AvgHops() < 0.5 {
		t.Errorf("avg hops %.2f implausibly low", rt.AvgHops())
	}
	if rt.MaxLinkUse() < 1 {
		t.Error("no link usage recorded")
	}
}

func TestRoutesStayNearGrid(t *testing.T) {
	m := dotMapping(t)
	p := arch.Default()
	rt, err := RouteAllWithFaults(m.Netlist, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rt.Routes {
		for _, h := range r.Hops {
			if h[0] < -1 || h[0] > p.Chip.Cols || h[1] < 0 || h[1] >= p.Chip.Rows {
				t.Fatalf("hop %v outside the fabric", h)
			}
		}
	}
}
