package compiler

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/fault"
)

// compileFaulted compiles the shared dot-product program under a plan.
func compileFaulted(t *testing.T, plan *fault.Plan) *Mapping {
	t.Helper()
	m, err := CompileOpts(context.Background(), buildDotProgram(1024, 256, 16), Options{Params: arch.Default(), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPlaceWithFaultsAvoidsDisabledTiles(t *testing.T) {
	params := arch.Default()
	plan, err := fault.NewPlan(fault.Spec{Seed: 3, PCUs: 20, PMUs: 20, Switches: 4}, params)
	if err != nil {
		t.Fatal(err)
	}
	m := compileFaulted(t, plan)
	if m.Faults != plan {
		t.Error("mapping does not record the fault plan it was compiled under")
	}
	for _, nd := range m.Netlist.Nodes {
		switch nd.Kind {
		case NodePCU:
			if plan.PCUDisabled(nd.X, nd.Y) {
				t.Errorf("PCU %q placed on disabled tile (%d,%d)", nd.Name, nd.X, nd.Y)
			}
		case NodePMU:
			if plan.PMUDisabled(nd.X, nd.Y) {
				t.Errorf("PMU %q placed on disabled tile (%d,%d)", nd.Name, nd.X, nd.Y)
			}
		}
	}
}

func TestCompileInsufficientHealthy(t *testing.T) {
	params := arch.Default()
	plan, err := fault.NewPlan(fault.Spec{Seed: 1, PCUs: params.NumPCUs()}, params)
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileOpts(context.Background(), buildDotProgram(1024, 256, 16), Options{Params: params, Faults: plan})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
	var ie *InsufficientError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T is not *InsufficientError", err)
	}
	if ie.Resource != "PCU" || ie.Have != 0 || ie.Disabled != params.NumPCUs() {
		t.Errorf("shortfall misreported: %+v", ie)
	}
}

func TestRouteDetoursAvoidDisabledSwitches(t *testing.T) {
	params := arch.Default()
	plan, err := fault.NewPlan(fault.Spec{Seed: 7, Switches: 10}, params)
	if err != nil {
		t.Fatal(err)
	}
	m := compileFaulted(t, plan)
	for _, r := range m.Routes.Routes {
		// Interior hops must avoid dead switches; endpoints are the units'
		// own local switch ports and always usable.
		for h := 1; h < len(r.Hops)-1; h++ {
			if plan.SwitchDisabled(r.Hops[h][0], r.Hops[h][1]) {
				t.Errorf("route %d-%d crosses disabled switch (%d,%d)",
					r.From, r.To, r.Hops[h][0], r.Hops[h][1])
			}
		}
	}
}

func TestNoRouteAcrossSwitchWall(t *testing.T) {
	params := arch.Default()
	// A dead column of switches spanning the full chip height cuts the
	// fabric in two; no detour exists from one side to the other.
	var wall []fault.Coord
	for y := 0; y < params.Chip.Rows; y++ {
		wall = append(wall, fault.Coord{X: 5, Y: y})
	}
	plan := fault.ManualPlan(nil, nil, wall, nil)
	if _, ok := detourRoute(0, 0, 10, 0, params, plan); ok {
		t.Fatal("detour found through a full-height switch wall")
	}
	nl := &Netlist{Nodes: []*Node{
		{Kind: NodePCU, Name: "left", X: 0, Y: 0, Edges: []int{1}},
		{Kind: NodePCU, Name: "right", X: 10, Y: 0, Edges: []int{0}},
	}}
	_, err := RouteAllWithFaults(nl, params, plan)
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("want ErrNoRoute, got %v", err)
	}
	var re *NoRouteError
	if !errors.As(err, &re) || re.From != "left" || re.To != "right" {
		t.Errorf("no-route diagnostic misreported: %v", err)
	}
}

// placementKey serialises every placed coordinate and route hop so runs can
// be compared byte for byte.
func placementKey(m *Mapping) string {
	s := ""
	for _, nd := range m.Netlist.Nodes {
		s += fmt.Sprintf("%s@%d,%d;", nd.Name, nd.X, nd.Y)
	}
	for _, r := range m.Routes.Routes {
		s += fmt.Sprintf("%d-%d:%v;", r.From, r.To, r.Hops)
	}
	return s
}

func TestCompileFaultedDeterministic(t *testing.T) {
	params := arch.Default()
	spec := fault.Spec{Seed: 11, PCUs: 8, PMUs: 8, Switches: 6}
	run := func() string {
		plan, err := fault.NewPlan(spec, params)
		if err != nil {
			t.Fatal(err)
		}
		return placementKey(compileFaulted(t, plan))
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same fault seed produced different mappings:\n%s\n%s", a, b)
	}
}

func TestZeroFaultPlanReproducesPristineCompile(t *testing.T) {
	params := arch.Default()
	zero, err := fault.NewPlan(fault.Spec{Seed: 99}, params)
	if err != nil {
		t.Fatal(err)
	}
	prog := buildDotProgram(1024, 256, 16)
	pristine, err := CompileOpts(context.Background(), prog, Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := CompileOpts(context.Background(), prog, Options{Params: params, Faults: zero})
	if err != nil {
		t.Fatal(err)
	}
	if placementKey(pristine) != placementKey(faulted) {
		t.Error("zero-fault plan changed placement or routing vs pristine Compile")
	}
	for leaf, lm := range pristine.Leaves {
		flm := faulted.Leaves[leaf]
		if flm == nil || *flm != *lm {
			t.Errorf("leaf %q timing differs under zero-fault plan: %+v vs %+v",
				leaf.Name, flm, lm)
		}
	}
}
