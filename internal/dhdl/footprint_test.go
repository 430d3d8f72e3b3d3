package dhdl

import (
	"reflect"
	"slices"
	"testing"

	"plasticine/internal/pattern"
)

// TestLeafFootprints pins what Builder.Build records as each leaf's Reads
// and Writes: the order (the graph builder adds dependency edges in it),
// one entry per memory and no nil pointer where a transfer leaves an
// endpoint unset. It covers every transfer kind, with SRAM and FIFO
// endpoints and with fixed and register-held counts, and every assign
// kind.
func TestLeafFootprints(t *testing.T) {
	b := NewBuilder("footprint", Sequential)
	d := b.DRAMF32("d", 64)
	s := b.SRAM("s", pattern.F32, 16)
	u := b.SRAM("u", pattern.F32, 16)
	acc := b.SRAM("acc", pattern.F32, 16)
	ia := b.SRAM("ia", pattern.I32, 16)
	f := b.FIFO("f", pattern.F32, 16)
	fi := b.FIFO("fi", pattern.I32, 16)
	g := b.FIFO("g", pattern.F32, 16)
	n := b.Reg("n", pattern.VI(16))
	r := b.Reg("r", pattern.VF(0))
	sum := b.Reg("sum", pattern.VF(0))
	sparse := func(kind Kind, x *Transfer) {
		x.DRAM = d
		b.add(&Controller{Name: kind.String(), Kind: kind, Xfer: x})
	}
	b.Seq("all", nil, func([]Expr) {
		b.Load("load", d, CI(0), s, 16)
		b.LoadTiled("loadRows", []Counter{CDyn(n)}, d, s, 4, func(ix []Expr) (Expr, Expr) { return ix[0], ix[0] })
		b.LoadFIFO("loadFIFO", d, CI(0), f, 16)
		b.Store("store", d, CI(0), s, 16)
		b.StoreFIFO("storeFIFO", d, CI(0), f, n)
		b.Gather("gather", d, ia, s, 16, nil)
		b.Gather("gatherDyn", d, ia, s, 0, n)
		sparse(GatherKind, &Transfer{AddrFIFO: fi, FIFO: f, Count: 16})
		b.Scatter("scatter", d, ia, s, 16, nil)
		sparse(ScatterKind, &Transfer{AddrFIFO: fi, DataFIFO: f, CountReg: n})
		b.Compute("writeSRAM", []Counter{C(16)}, func(ix []Expr) []*Assign {
			// The value reads r, f and, twice, s; SRAMs list before FIFOs
			// before registers, then the address, then the condition.
			val := Add(Rd(r), Add(Pop(f), Mul(Ld(s, ix[0]), Ld(s, ix[0]))))
			return []*Assign{StoreAtIf(u, Lt(Rd(sum), Ld(u, ix[0])), Ld(ia, ix[0]), val)}
		})
		b.Compute("reduceSRAM", []Counter{C(16)}, func(ix []Expr) []*Assign {
			return []*Assign{AccumAt(acc, pattern.Add, Ld(ia, ix[0]), Ld(s, ix[0]))}
		})
		b.Compute("regsAndPush", []Counter{CDyn(n)}, func(ix []Expr) []*Assign {
			return []*Assign{
				SetReg(r, Ld(s, ix[0])),
				AccumIf(sum, pattern.Add, Gt(Rd(r), CF(0)), Rd(r)),
				PushIf(g, Lt(Rd(sum), CF(8)), Ld(acc, ix[0])),
			}
		})
	})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		leaf          string
		reads, writes []any
	}{
		{"load", []any{d}, []any{s}},
		{"loadRows", []any{n, d}, []any{s}},
		{"loadFIFO", []any{d}, []any{f}},
		{"store", []any{s}, []any{d}},
		{"storeFIFO", []any{n, f}, []any{d}},
		{"gather", []any{ia, d}, []any{s}},
		{"gatherDyn", []any{n, ia, d}, []any{s}},
		{"Gather", []any{fi, d}, []any{f}},
		{"scatter", []any{ia, s}, []any{d}},
		{"Scatter", []any{n, fi, f}, []any{d}},
		{"writeSRAM", []any{s, f, r, ia, u, sum}, []any{u}},
		{"reduceSRAM", []any{s, ia, acc}, []any{acc}},
		{"regsAndPush", []any{n, s, r, acc, sum}, []any{r, sum, g}},
	}
	leaves := p.Leaves()
	if len(leaves) != len(want) {
		t.Fatalf("%d leaves, want %d", len(leaves), len(want))
	}
	for i, w := range want {
		c := leaves[i]
		if c.Name != w.leaf {
			t.Fatalf("leaf %d is %q, want %q", i, c.Name, w.leaf)
		}
		if !slices.Equal(c.Reads(), w.reads) {
			t.Errorf("%s reads %s, want %s", c.Name, memNames(c.Reads()), memNames(w.reads))
		}
		if !slices.Equal(c.Writes(), w.writes) {
			t.Errorf("%s writes %s, want %s", c.Name, memNames(c.Writes()), memNames(w.writes))
		}
	}
	p.Walk(func(c *Controller) {
		if c.Kind.IsOuter() && (c.Reads() != nil || c.Writes() != nil) {
			t.Errorf("outer controller %s lists memories", c.Name)
		}
	})
}

// memNames renders a footprint for failure messages, a nil pointer as
// "nil".
func memNames(ms []any) []string {
	var out []string
	for _, m := range ms {
		name := "nil"
		if v := reflect.ValueOf(m); !v.IsNil() {
			name = v.Elem().FieldByName("Name").String()
		}
		out = append(out, name)
	}
	return out
}
