package dse

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
)

var benchCache []*Bench

func benches(t *testing.T) []*Bench {
	t.Helper()
	if benchCache == nil {
		b, err := LoadBenches()
		if err != nil {
			t.Fatal(err)
		}
		benchCache = b
	}
	return benchCache
}

// seqSweep is a sequential, uncached sweep over the benchmark set.
func seqSweep(t *testing.T) *Sweep {
	t.Helper()
	return NewSweep(benches(t), arch.Default().Chip, nil)
}

func TestLoadBenchesExcludesCNN(t *testing.T) {
	bs := benches(t)
	if len(bs) != 12 {
		t.Fatalf("got %d benchmarks, want 12 (Figure 7 excludes CNN)", len(bs))
	}
	for _, b := range bs {
		if b.Name == "CNN" {
			t.Error("CNN should be excluded from the sweep set")
		}
		if len(b.PCUs) == 0 {
			t.Errorf("%s has no virtual PCUs", b.Name)
		}
	}
}

func TestFigure7PanelA(t *testing.T) {
	p, err := seqSweep(t).Figure7(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Param != "stages" {
		t.Fatalf("panel a sweeps %q, want stages", p.Param)
	}
	// InnerProduct folds across 16 lanes: fewer than 5 stages cannot hold
	// the reduction tree, so stages=4 must be infeasible (an x in the
	// paper's figure) and at least one value must be feasible.
	ipRow := -1
	for i, n := range p.Benchmarks {
		if n == "InnerProduct" {
			ipRow = i
		}
	}
	if ipRow < 0 {
		t.Fatal("InnerProduct missing")
	}
	if !math.IsInf(p.Overhead[ipRow][0], 1) {
		t.Errorf("InnerProduct at 4 stages should be infeasible, got %v", p.Overhead[ipRow][0])
	}
	feasible := false
	for _, ov := range p.Overhead[ipRow] {
		if !math.IsInf(ov, 1) {
			feasible = true
			if ov < 0 {
				t.Errorf("negative overhead %v", ov)
			}
		}
	}
	if !feasible {
		t.Error("InnerProduct infeasible everywhere")
	}
	// Every benchmark's minimum overhead must be exactly 0 (normalisation).
	for bi, row := range p.Overhead {
		min := math.Inf(1)
		for _, ov := range row {
			if ov < min {
				min = ov
			}
		}
		if min != 0 {
			t.Errorf("%s: min overhead = %v, want 0", p.Benchmarks[bi], min)
		}
	}
}

func TestFigure7OverheadGrowsWithExcessStages(t *testing.T) {
	// Past each benchmark's sweet spot, adding stages only wastes area:
	// overhead at 16 stages must exceed overhead at the best value.
	p, err := seqSweep(t).Figure7(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	last := len(p.Values) - 1
	for bi, row := range p.Overhead {
		if math.IsInf(row[last], 1) {
			continue
		}
		if row[last] <= 0 {
			t.Errorf("%s: 16-stage overhead = %v, want > 0", p.Benchmarks[bi], row[last])
		}
	}
}

func TestFigure7UnknownPanel(t *testing.T) {
	if _, err := seqSweep(t).Figure7(context.Background(), "z"); err == nil {
		t.Error("expected error for unknown panel")
	}
}

func TestFigure7AllPanelsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("all panels are slow")
	}
	for _, id := range []string{"b", "c", "d", "e", "f"} {
		p, err := seqSweep(t).Figure7(context.Background(), id)
		if err != nil {
			t.Fatalf("panel %s: %v", id, err)
		}
		if len(p.Overhead) != 12 {
			t.Errorf("panel %s has %d rows", id, len(p.Overhead))
		}
		if s := p.Format(); !strings.Contains(s, p.Param) {
			t.Errorf("panel %s format missing parameter name", id)
		}
	}
}

func TestTable3SelectionNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full selection sweep is slow")
	}
	rows, err := seqSweep(t).Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d parameter rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Chosen <= 0 {
			t.Errorf("%s: no feasible value selected", r.Param)
		}
		// Workload mixes differ from the paper's exact implementations, so
		// demand the same ballpark rather than equality.
		if r.Chosen > 3*r.Paper+2 {
			t.Errorf("%s: selected %d, paper chose %d — too far apart", r.Param, r.Chosen, r.Paper)
		}
	}
	if s := FormatTable3(rows); !strings.Contains(s, "stages") {
		t.Error("Table 3 format missing parameter names")
	}
}

func TestTable6LadderShape(t *testing.T) {
	rows, err := seqSweep(t).Table6(context.Background(), arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 { // 12 benchmarks + geomean
		t.Fatalf("got %d rows, want 13", len(rows))
	}
	geo := rows[len(rows)-1]
	if geo.Name != "GeoMean" {
		t.Fatalf("last row is %q, want GeoMean", geo.Name)
	}
	// Paper: reconfigurability costs ~2.8x over ASICs on average; the full
	// ladder lands at 11.46x. Same order of magnitude required here.
	if geo.A < 1.5 || geo.A > 6 {
		t.Errorf("geomean het overhead = %.2f, want ~2-4 (paper 2.77)", geo.A)
	}
	if geo.CumE < 4 || geo.CumE > 43 {
		t.Errorf("geomean cumulative overhead = %.2f, want ~5-40 (paper 11.46)", geo.CumE)
	}
	for _, r := range rows {
		if r.A < 1 {
			t.Errorf("%s: reconfigurable cheaper than ASIC (%.2f)", r.Name, r.A)
		}
		for _, v := range []float64{r.B, r.C, r.D, r.E} {
			if v < 0.99 {
				t.Errorf("%s: a generalization step decreased area (%.2f)", r.Name, v)
			}
		}
		if r.CumE < r.A*0.99 {
			t.Errorf("%s: cumulative %.2f below first step %.2f", r.Name, r.CumE, r.A)
		}
	}
	if s := FormatTable6(rows); !strings.Contains(s, "GeoMean") {
		t.Error("Table 6 format missing GeoMean")
	}
}

func TestMinimizeAreaRespectsFixed(t *testing.T) {
	bs := benches(t)
	p, area, err := NewSweep(nil, arch.Default().Chip, nil).minimizeArea(context.Background(), bs[0], map[string]int{"stages": 6})
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages != 6 {
		t.Errorf("fixed stages ignored: got %d", p.Stages)
	}
	if math.IsInf(area, 1) || area <= 0 {
		t.Errorf("area = %v", area)
	}
}

func TestMinimizeAreaUnknownParam(t *testing.T) {
	bs := benches(t)
	_, _, err := NewSweep(nil, arch.Default().Chip, nil).minimizeArea(context.Background(), bs[0], map[string]int{"lanes?": 4})
	if !errors.Is(err, ErrUnknownParam) {
		t.Fatalf("want ErrUnknownParam, got %v", err)
	}
	if !strings.Contains(err.Error(), "lanes?") {
		t.Errorf("error does not name the bad parameter: %v", err)
	}
}

func TestBenchPCUAreaInfeasible(t *testing.T) {
	bs := benches(t)
	tiny := maxParams()
	tiny.Lanes = 1 // every 16-lane unit becomes unmappable
	if a := AnalyticalArea(bs[0], tiny, arch.Default().Chip); !math.IsInf(a, 1) {
		t.Errorf("expected infeasible, got %v", a)
	}
}

func TestRatioStudy(t *testing.T) {
	rows, err := seqSweep(t).RatioStudy(context.Background(), arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 1:3, 1:1 (2:2 deduped), 3:1
		t.Fatalf("got %d ratio rows, want 3", len(rows))
	}
	var oneToOne *RatioRow
	for i := range rows {
		if rows[i].PMUs == rows[i].PCUs {
			oneToOne = &rows[i]
		}
	}
	if oneToOne == nil {
		t.Fatal("1:1 ratio missing")
	}
	// The paper chose 1:1: every benchmark must fit at that ratio.
	if oneToOne.Fit != 12 {
		t.Errorf("1:1 ratio fits %d of 12 benchmarks", oneToOne.Fit)
	}
	if s := FormatRatios(rows); !strings.Contains(s, "1:1") {
		t.Error("ratio table missing 1:1 row")
	}
}

// --- tuner-facing exports ---------------------------------------------------

func TestLoadBenchByName(t *testing.T) {
	b, err := LoadBench("InnerProduct")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "InnerProduct" || len(b.PCUs) == 0 {
		t.Fatalf("LoadBench = %+v", b)
	}
	if _, err := LoadBench("NoSuchBenchmark"); err == nil {
		t.Fatal("unknown benchmark loaded")
	}
}

// TestAnalyticalAreaMatchesSweepModel requires every benchmark to be
// feasible at the default design point and a hopeless datapath to be
// Infeasible.
func TestAnalyticalAreaMatchesSweepModel(t *testing.T) {
	def := arch.Default()
	for _, b := range benches(t) {
		if math.IsInf(AnalyticalArea(b, def.PCU, def.Chip), 1) {
			t.Fatalf("%s is infeasible at the default design point", b.Name)
		}
	}
	// A hopeless datapath is Infeasible, not a number.
	tiny := def.PCU
	tiny.Stages, tiny.Registers = 1, 1
	infeasibleSeen := false
	for _, b := range benches(t) {
		if math.IsInf(AnalyticalArea(b, tiny, def.Chip), 1) {
			infeasibleSeen = true
		}
	}
	if !infeasibleSeen {
		t.Fatal("no benchmark found a 1-stage/1-register PCU infeasible")
	}
}

func TestCheckFeasible(t *testing.T) {
	def := arch.Default()
	for _, b := range benches(t) {
		if err := CheckFeasible(b, def); err != nil {
			t.Fatalf("%s infeasible at the default design point: %v", b.Name, err)
		}
	}
	// A 2x2 chip cannot hold any real benchmark's unit demand; the error
	// must identify the shortfall class for the tuner's accounting.
	small := def
	small.Chip.Rows, small.Chip.Cols = 2, 2
	failed := false
	for _, b := range benches(t) {
		if err := CheckFeasible(b, small); err != nil {
			failed = true
			if !errors.Is(err, compiler.ErrInsufficient) {
				t.Fatalf("%s: shortfall does not wrap ErrInsufficient: %v", b.Name, err)
			}
			if !strings.Contains(err.Error(), b.Name) {
				t.Fatalf("error does not name the benchmark: %v", err)
			}
		}
	}
	if !failed {
		t.Fatal("every benchmark fit a 2x2 chip")
	}
}
