package compiler

import (
	"context"
	"errors"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/fault"
)

// compileDot compiles the shared dot-product fixture fault-free.
func compileDot(t *testing.T) *Mapping {
	t.Helper()
	m, err := CompileOpts(context.Background(), buildDotProgram(1024, 256, 16), Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pickOccupied returns the first netlist node of the wanted kind.
func pickOccupied(t *testing.T, m *Mapping, kind NodeKind) *Node {
	t.Helper()
	for _, nd := range m.Netlist.Nodes {
		if nd.Kind == kind {
			return nd
		}
	}
	t.Fatalf("fixture has no node of kind %v", kind)
	return nil
}

// TestRepairMovesOnlyDeadTileUnits is the acceptance criterion: killing one
// occupied tile moves exactly the unit that sat on it and nothing else.
func TestRepairMovesOnlyDeadTileUnits(t *testing.T) {
	m := compileDot(t)
	victim := pickOccupied(t, m, NodePCU)
	before := map[string][2]int{}
	for _, nd := range m.Netlist.Nodes {
		before[nd.Name] = [2]int{nd.X, nd.Y}
	}
	vx, vy := victim.X, victim.Y

	plan := fault.ManualPlan([]fault.Coord{{X: vx, Y: vy}}, nil, nil, nil)
	rep, err := Repair(context.Background(), m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullRecompile {
		t.Fatal("one dead tile forced a full recompile; incremental path expected")
	}
	if rep.MovedPCUs != 1 || rep.MovedPMUs != 0 {
		t.Errorf("moved %d PCUs / %d PMUs, want exactly 1 PCU", rep.MovedPCUs, rep.MovedPMUs)
	}
	if victim.X == vx && victim.Y == vy {
		t.Error("victim still sits on the dead tile")
	}
	if plan.PCUDisabled(victim.X, victim.Y) {
		t.Errorf("victim re-placed onto disabled tile (%d,%d)", victim.X, victim.Y)
	}
	occupied := map[[2]int]int{}
	for _, nd := range m.Netlist.Nodes {
		pos := [2]int{nd.X, nd.Y}
		occupied[pos]++
		if nd != victim && before[nd.Name] != pos {
			t.Errorf("unit %q moved from %v to %v despite sitting on a healthy tile",
				nd.Name, before[nd.Name], pos)
		}
	}
	if occupied[[2]int{victim.X, victim.Y}] != 1 {
		t.Errorf("victim's new tile (%d,%d) is shared by %d units",
			victim.X, victim.Y, occupied[[2]int{victim.X, victim.Y}])
	}
	if m.Faults != plan {
		t.Error("repair did not record the extended fault plan")
	}
}

// TestRepairReroutesMovedUnitEdges checks every edge touching the moved unit
// is re-routed to its new position and link accounting stays consistent.
func TestRepairReroutesMovedUnitEdges(t *testing.T) {
	m := compileDot(t)
	victim := pickOccupied(t, m, NodePMU)
	plan := fault.ManualPlan(nil, []fault.Coord{{X: victim.X, Y: victim.Y}}, nil, nil)
	rep, err := Repair(context.Background(), m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReroutedEdges == 0 {
		t.Error("moving a connected PMU re-routed no edges")
	}
	for _, r := range m.Routes.Routes {
		from, to := m.Netlist.Nodes[r.From], m.Netlist.Nodes[r.To]
		if h0 := r.Hops[0]; h0[0] != from.X || h0[1] != from.Y {
			t.Errorf("route %d-%d starts at %v, unit sits at (%d,%d)", r.From, r.To, h0, from.X, from.Y)
		}
		if hn := r.Hops[len(r.Hops)-1]; hn[0] != to.X || hn[1] != to.Y {
			t.Errorf("route %d-%d ends at %v, unit sits at (%d,%d)", r.From, r.To, hn, to.X, to.Y)
		}
	}
	// Rebuild link usage from scratch; the incrementally-updated table must
	// match exactly.
	want := map[string]int{}
	for _, r := range m.Routes.Routes {
		for h := 1; h < len(r.Hops); h++ {
			want[LinkKey(r.Hops[h-1], r.Hops[h])]++
		}
	}
	if len(want) != len(m.Routes.LinkUse) {
		t.Fatalf("link table has %d entries, recomputed %d", len(m.Routes.LinkUse), len(want))
	}
	for k, n := range want {
		if m.Routes.LinkUse[k] != n {
			t.Errorf("link %s: incremental count %d, recomputed %d", k, m.Routes.LinkUse[k], n)
		}
	}
}

// TestRepairPatchesDeadSwitchRoutes kills a switch under an existing route;
// only crossing routes change and none crosses the dead site afterwards.
func TestRepairPatchesDeadSwitchRoutes(t *testing.T) {
	m := compileDot(t)
	// Find a switch site strictly interior to some route.
	var dead [2]int
	found := false
	for _, r := range m.Routes.Routes {
		if len(r.Hops) > 2 {
			dead = r.Hops[1]
			found = true
			break
		}
	}
	if !found {
		t.Skip("fixture has no multi-hop route to cut")
	}
	plan := fault.ManualPlan(nil, nil, []fault.Coord{{X: dead[0], Y: dead[1]}}, nil)
	rep, err := Repair(context.Background(), m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullRecompile {
		t.Fatal("one dead switch forced a full recompile")
	}
	if rep.MovedUnits() != 0 {
		t.Errorf("switch fault moved %d units; placement must be untouched", rep.MovedUnits())
	}
	if rep.ReroutedEdges == 0 {
		t.Error("no route re-routed although one crossed the dead switch")
	}
	for _, r := range m.Routes.Routes {
		for h := 1; h < len(r.Hops)-1; h++ {
			if r.Hops[h] == dead {
				t.Errorf("route %d-%d still crosses dead switch %v", r.From, r.To, dead)
			}
		}
	}
}

func TestRepairDeterministic(t *testing.T) {
	run := func() string {
		m := compileDot(t)
		victim := pickOccupied(t, m, NodePCU)
		plan := fault.ManualPlan([]fault.Coord{{X: victim.X, Y: victim.Y}}, nil, nil, nil)
		if _, err := Repair(context.Background(), m, plan); err != nil {
			t.Fatal(err)
		}
		return placementKey(m)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical repairs produced different mappings:\n%s\n%s", a, b)
	}
}

// TestRepairKeepsTimingMapsOnIncrementalPath pins the contract the simulator
// relies on: an incremental repair must not invalidate the activity graph, so
// the Leaves/Mems maps keep their identities.
func TestRepairKeepsTimingMapsOnIncrementalPath(t *testing.T) {
	m := compileDot(t)
	leavesBefore := make(map[interface{}]*LeafMap)
	for k, v := range m.Leaves {
		leavesBefore[k] = v
	}
	victim := pickOccupied(t, m, NodePCU)
	plan := fault.ManualPlan([]fault.Coord{{X: victim.X, Y: victim.Y}}, nil, nil, nil)
	if _, err := Repair(context.Background(), m, plan); err != nil {
		t.Fatal(err)
	}
	for k, v := range m.Leaves {
		if leavesBefore[k] != v {
			t.Errorf("incremental repair replaced the LeafMap for %v", k)
		}
	}
}

// TestRepairFallsBackToRecompileError drives the ladder to its bottom rung:
// when even a full recompile cannot fit, Repair reports FullRecompile and the
// error wraps ErrInsufficient.
func TestRepairFallsBackToRecompileError(t *testing.T) {
	m := compileDot(t)
	plan := allPCUsDead(m.Params)
	rep, err := Repair(context.Background(), m, plan)
	if err == nil {
		t.Fatal("repair succeeded with every PCU tile dead")
	}
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("want ErrInsufficient, got %v", err)
	}
	if !rep.FullRecompile {
		t.Error("report does not show the full-recompile fallback was attempted")
	}
}

// allPCUsDead kills every PCU tile on the chip: displaced units have nowhere
// to go incrementally, and the recompile fallback cannot fit either.
func allPCUsDead(params arch.Params) *fault.Plan {
	var allPCU []fault.Coord
	for y := 0; y < params.Chip.Rows; y++ {
		for x := 0; x < params.Chip.Cols; x++ {
			if (x+y)%2 == 0 {
				allPCU = append(allPCU, fault.Coord{X: x, Y: y})
			}
		}
	}
	return fault.ManualPlan(allPCU, nil, nil, nil)
}

// TestRepairRecompileHonoursCancel: the full-recompile rung runs under the
// caller's ctx, so a canceled repair reports the cancellation, never a
// program that does not fit.
func TestRepairRecompileHonoursCancel(t *testing.T) {
	m := compileDot(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Repair(ctx, m, allPCUsDead(m.Params))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if errors.Is(err, ErrInsufficient) {
		t.Errorf("canceled recompile reported as a no-fit: %v", err)
	}
	if rep == nil || !rep.FullRecompile {
		t.Error("repair never reached the full-recompile rung")
	}
}

// TestRepairZeroNewFaultsIsNoOp pins that repairing under a plan that kills
// nothing new leaves placement, routes and counters untouched.
func TestRepairZeroNewFaultsIsNoOp(t *testing.T) {
	m := compileDot(t)
	before := placementKey(m)
	plan := fault.ManualPlan(nil, nil, nil, nil)
	rep, err := Repair(context.Background(), m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MovedUnits() != 0 || rep.ReroutedEdges != 0 || rep.FullRecompile {
		t.Errorf("no-op repair reported work: %s", rep)
	}
	if placementKey(m) != before {
		t.Error("no-op repair changed placement or routing")
	}
}
