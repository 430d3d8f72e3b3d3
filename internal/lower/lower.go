// Package lower translates parallel patterns (Section 2, Table 1) into
// tiled DHDL programs — the step prior work performs between the pattern
// language and DHDL (Section 3.6). Supported are the canonical
// one-dimensional forms over streamed collections: Map, Fold, the filter
// special case of FlatMap, and dense HashReduce. Collections read at the
// pattern index become tiled DRAM loads; the body becomes the inner
// compute; outputs become stores, scalar registers, or accumulator
// scratchpads.
package lower

import (
	"fmt"

	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

// Options tune the generated program.
type Options struct {
	// Tile is the on-chip tile size in elements (default 1024).
	Tile int
	// Par is the tile-loop parallelization factor (default 4).
	Par int
	// Lanes is the SIMD width of the inner compute (default 16).
	Lanes int
}

func (o Options) withDefaults() Options {
	if o.Tile == 0 {
		o.Tile = 1024
	}
	if o.Par == 0 {
		o.Par = 4
	}
	if o.Lanes == 0 {
		o.Lanes = 16
	}
	return o
}

// Result is the lowered program and handles to its outputs.
type Result struct {
	Prog *dhdl.Program

	// Output holds Map results and kept FlatMap elements (bound to a
	// fresh collection of the domain size).
	Output *dhdl.DRAMBuf
	// OutData is the collection backing Output.
	OutData *pattern.Collection

	// OutReg is the Fold result.
	OutReg *dhdl.Reg
	// CountReg counts kept FlatMap elements.
	CountReg *dhdl.Reg

	// Bins holds dense HashReduce accumulators, one SRAM-backed DRAM
	// buffer per value function; Bins[i] has DenseKeys elements.
	Bins     []*dhdl.DRAMBuf
	BinsData []*pattern.Collection
}

// Pattern lowers a parallel pattern to a DHDL program with every DRAM
// buffer bound: inputs to the pattern's collections, outputs to freshly
// allocated collections exposed on the Result.
func Pattern(p pattern.Pattern, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := pattern.Validate(p); err != nil {
		return nil, err
	}
	dom := p.Domain()
	if len(dom) != 1 {
		return nil, fmt.Errorf("lower: only 1-D domains are supported, got %d dims", len(dom))
	}
	n := dom[0]
	if n%opts.Tile != 0 {
		// Shrink the tile to a divisor so the last tile is full.
		t := opts.Tile
		for n%t != 0 {
			t /= 2
			if t == 0 {
				return nil, fmt.Errorf("lower: domain %d has no power-of-two tile divisor", n)
			}
		}
		opts.Tile = t
	}

	switch pat := p.(type) {
	case *pattern.MapPat:
		return lowerMap(pat, n, opts)
	case *pattern.FoldPat:
		return lowerFold(pat, n, opts)
	case *pattern.FlatMapPat:
		return lowerFilter(pat, n, opts)
	case *pattern.HashReducePat:
		return lowerHashReduce(pat, n, opts)
	}
	return nil, fmt.Errorf("lower: unsupported pattern %T", p)
}

// collector finds the collections a body reads at the pattern index and
// assigns each a DRAM buffer and a tile.
type collector struct {
	b     *dhdl.Builder
	sm    *pattern.SourceMap // provenance of the pattern being lowered
	tile  int
	colls []*pattern.Collection
	bufs  map[*pattern.Collection]*dhdl.DRAMBuf
	tiles map[*pattern.Collection]*dhdl.SRAM
}

func newCollector(b *dhdl.Builder, sm *pattern.SourceMap, tile int) *collector {
	return &collector{
		b: b, sm: sm, tile: tile,
		bufs:  map[*pattern.Collection]*dhdl.DRAMBuf{},
		tiles: map[*pattern.Collection]*dhdl.SRAM{},
	}
}

// scan registers every collection e reads; only streaming reads at the
// pattern index (c[i]) are supported.
func (cl *collector) scan(e pattern.Expr) error {
	var scanErr error
	pattern.Walk(e, func(x pattern.Expr) {
		rd, ok := x.(*pattern.Read)
		if !ok || scanErr != nil {
			return
		}
		if len(rd.Index) != 1 {
			scanErr = fmt.Errorf("lower: read of %s has %d indices; only 1-D streaming reads are supported", rd.Coll.Name, len(rd.Index))
			return
		}
		if _, isIdx := rd.Index[0].(*pattern.Idx); !isIdx {
			scanErr = fmt.Errorf("lower: read of %s is not at the pattern index; only streaming accesses are supported", rd.Coll.Name)
			return
		}
		if _, seen := cl.bufs[rd.Coll]; seen {
			return
		}
		if rd.Coll.Rank() != 1 {
			scanErr = fmt.Errorf("lower: collection %s has rank %d; want 1", rd.Coll.Name, rd.Coll.Rank())
			return
		}
		// The buffer and its tile are attributed to the exact read node
		// (stable SourceID), so fit reports can point at the source read.
		prev := cl.b.SetOrigin(cl.sm.Label(cl.sm.IDOf(rd)))
		var buf *dhdl.DRAMBuf
		if rd.Coll.Elem == pattern.F32 {
			buf = cl.b.DRAMF32(rd.Coll.Name, rd.Coll.Len())
		} else {
			buf = cl.b.DRAMI32(rd.Coll.Name, rd.Coll.Len())
		}
		cl.bufs[rd.Coll] = buf
		cl.tiles[rd.Coll] = cl.b.SRAM("t_"+rd.Coll.Name, rd.Coll.Elem, cl.tile)
		cl.b.SetOrigin(prev)
		cl.colls = append(cl.colls, rd.Coll)
	})
	return scanErr
}

// loads emits one tile load per collection at DRAM offset off.
func (cl *collector) loads(off dhdl.Expr) {
	for _, c := range cl.colls {
		prev := cl.b.SetOrigin(cl.sm.PatternName + "/load:" + c.Name)
		cl.b.Load("ld_"+c.Name, cl.bufs[c], off, cl.tiles[c], cl.tile)
		cl.b.SetOrigin(prev)
	}
}

// bind attaches every input collection.
func (cl *collector) bind() error {
	for _, c := range cl.colls {
		if err := cl.bufs[c].Bind(c); err != nil {
			return err
		}
	}
	return nil
}

// translate rewrites a pattern expression into a DHDL expression, mapping
// pattern-index reads to tile loads at the local index.
func (cl *collector) translate(e pattern.Expr, local, global dhdl.Expr) (dhdl.Expr, error) {
	switch n := e.(type) {
	case *pattern.ConstF:
		return dhdl.CF(n.V), nil
	case *pattern.ConstI:
		return dhdl.CI(n.V), nil
	case *pattern.ConstB:
		// Booleans only occur under comparisons in practice; encode as a
		// comparison that always yields the constant.
		if n.V {
			return dhdl.Eq(dhdl.CI(0), dhdl.CI(0)), nil
		}
		return dhdl.Ne(dhdl.CI(0), dhdl.CI(0)), nil
	case *pattern.Idx:
		// Index used as a value: the global position, tileBase + local.
		return global, nil
	case *pattern.Read:
		return dhdl.Ld(cl.tiles[n.Coll], local), nil
	case *pattern.ToF32:
		x, err := cl.translate(n.X, local, global)
		if err != nil {
			return nil, err
		}
		return dhdl.F32(x), nil
	case *pattern.ToI32:
		x, err := cl.translate(n.X, local, global)
		if err != nil {
			return nil, err
		}
		return dhdl.I32(x), nil
	case *pattern.Un:
		x, err := cl.translate(n.X, local, global)
		if err != nil {
			return nil, err
		}
		return &dhdl.Un{Op: n.Op, X: x}, nil
	case *pattern.Bin:
		x, err := cl.translate(n.X, local, global)
		if err != nil {
			return nil, err
		}
		y, err := cl.translate(n.Y, local, global)
		if err != nil {
			return nil, err
		}
		return &dhdl.Bin{Op: n.Op, X: x, Y: y}, nil
	case *pattern.Mux:
		c, err := cl.translate(n.Cond, local, global)
		if err != nil {
			return nil, err
		}
		tv, err := cl.translate(n.T, local, global)
		if err != nil {
			return nil, err
		}
		fv, err := cl.translate(n.F, local, global)
		if err != nil {
			return nil, err
		}
		return dhdl.Sel(c, tv, fv), nil
	}
	return nil, fmt.Errorf("lower: cannot translate %T", e)
}

// identity returns the combine op's identity element, used to seed per-tile
// partial accumulators and dense HashReduce bins.
func identity(op pattern.Op, t pattern.Type) (pattern.Value, error) {
	const inf = float32(3.4e38)
	switch op {
	case pattern.Add:
		if t == pattern.I32 {
			return pattern.VI(0), nil
		}
		return pattern.VF(0), nil
	case pattern.Mul:
		if t == pattern.I32 {
			return pattern.VI(1), nil
		}
		return pattern.VF(1), nil
	case pattern.Max:
		if t == pattern.I32 {
			return pattern.VI(-1 << 31), nil
		}
		return pattern.VF(-inf), nil
	case pattern.Min:
		if t == pattern.I32 {
			return pattern.VI(1<<31 - 1), nil
		}
		return pattern.VF(inf), nil
	}
	return pattern.Value{}, fmt.Errorf("lower: no identity for combine op %v", op)
}

func lowerMap(p *pattern.MapPat, n int, opts Options) (*Result, error) {
	sm := pattern.Describe(p)
	b := dhdl.NewBuilder("map", dhdl.Sequential)
	cl := newCollector(b, sm, opts.Tile)
	if err := cl.scan(p.F); err != nil {
		return nil, err
	}
	elem := p.F.Type()
	b.SetOrigin(sm.PatternName + "/store:out")
	var out *dhdl.DRAMBuf
	var outData *pattern.Collection
	if elem == pattern.I32 {
		out = b.DRAMI32("out", n)
		outData = pattern.NewI32("out", n)
	} else {
		out = b.DRAMF32("out", n)
		outData = pattern.NewF32("out", n)
	}
	tOut := b.SRAM("t_out", elem, opts.Tile)

	b.SetOrigin(sm.PatternName + "/tiles")
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStepPar(0, n, opts.Tile, opts.Par)}, func(ix []dhdl.Expr) {
		cl.loads(ix[0])
		b.SetOrigin(sm.Path(sm.IDOf(p.F)))
		b.Compute("map", []dhdl.Counter{dhdl.CPar(opts.Tile, opts.Lanes)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			v, err := cl.translate(p.F, jx[0], dhdl.Add(ix[0], jx[0]))
			if err != nil {
				b.Errf("lower map: %v", err)
				return nil
			}
			return []*dhdl.Assign{dhdl.StoreAt(tOut, jx[0], v)}
		})
		b.SetOrigin(sm.PatternName + "/store:out")
		b.Store("st_out", out, ix[0], tOut, opts.Tile)
	})
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := cl.bind(); err != nil {
		return nil, err
	}
	if err := out.Bind(outData); err != nil {
		return nil, err
	}
	return &Result{Prog: prog, Output: out, OutData: outData}, nil
}

func lowerFold(p *pattern.FoldPat, n int, opts Options) (*Result, error) {
	sm := pattern.Describe(p)
	b := dhdl.NewBuilder("fold", dhdl.Sequential)
	cl := newCollector(b, sm, opts.Tile)
	if err := cl.scan(p.F); err != nil {
		return nil, err
	}
	elem := p.F.Type()
	zero, err := pattern.EvalChecked(p.Zero, nil)
	if err != nil {
		return nil, fmt.Errorf("lower fold: zero element: %w", err)
	}
	ident, err := identity(p.Combine, elem)
	if err != nil {
		return nil, err
	}
	partial := b.Reg("partial", ident)
	total := b.Reg("total", zero)

	b.SetOrigin(sm.PatternName + "/tiles")
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStepPar(0, n, opts.Tile, opts.Par)}, func(ix []dhdl.Expr) {
		cl.loads(ix[0])
		b.SetOrigin(sm.Path(sm.IDOf(p.F)))
		b.Compute("fold", []dhdl.Counter{dhdl.CPar(opts.Tile, opts.Lanes)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			v, err := cl.translate(p.F, jx[0], dhdl.Add(ix[0], jx[0]))
			if err != nil {
				b.Errf("lower fold: %v", err)
				return nil
			}
			return []*dhdl.Assign{dhdl.Accum(partial, p.Combine, v)}
		})
		b.SetOrigin(sm.PatternName + "/combine")
		b.Compute("acc", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(total,
				&dhdl.Bin{Op: p.Combine, X: dhdl.Rd(total), Y: dhdl.Rd(partial)})}
		})
	})
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := cl.bind(); err != nil {
		return nil, err
	}
	return &Result{Prog: prog, OutReg: total}, nil
}

func lowerFilter(p *pattern.FlatMapPat, n int, opts Options) (*Result, error) {
	sm := pattern.Describe(p)
	b := dhdl.NewBuilder("filter", dhdl.Sequential)
	cl := newCollector(b, sm, opts.Tile)
	if err := cl.scan(p.Cond); err != nil {
		return nil, err
	}
	if err := cl.scan(p.F); err != nil {
		return nil, err
	}
	elem := p.F.Type()
	var out *dhdl.DRAMBuf
	var outData *pattern.Collection
	if elem == pattern.I32 {
		out = b.DRAMI32("out", n)
		outData = pattern.NewI32("out", n)
	} else {
		out = b.DRAMF32("out", n)
		outData = pattern.NewF32("out", n)
	}
	kept := b.FIFO("kept", elem, n)
	tileCnt := b.Reg("tileCnt", pattern.VI(0))
	total := b.Reg("count", pattern.VI(0))
	written := b.Reg("written", pattern.VI(0))

	// Filters keep output order, so tiles run sequentially; within a tile
	// the lanes filter in parallel with valid-word coalescing.
	b.SetOrigin(sm.PatternName + "/tiles")
	b.Seq("tiles", []dhdl.Counter{dhdl.CStep(0, n, opts.Tile)}, func(ix []dhdl.Expr) {
		cl.loads(ix[0])
		b.SetOrigin(sm.Path(sm.IDOf(p.F)))
		b.Compute("filter", []dhdl.Counter{dhdl.CPar(opts.Tile, opts.Lanes)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			c, err := cl.translate(p.Cond, jx[0], dhdl.Add(ix[0], jx[0]))
			if err != nil {
				b.Errf("lower filter: %v", err)
				return nil
			}
			v, err := cl.translate(p.F, jx[0], dhdl.Add(ix[0], jx[0]))
			if err != nil {
				b.Errf("lower filter: %v", err)
				return nil
			}
			return []*dhdl.Assign{
				dhdl.PushIf(kept, c, v),
				dhdl.AccumIf(tileCnt, pattern.Add, c, dhdl.CI(1)),
			}
		})
		b.SetOrigin(sm.PatternName + "/store:out")
		b.StoreFIFO("st_out", out, dhdl.Rd(written), kept, tileCnt)
		b.SetOrigin(sm.PatternName + "/count")
		b.Compute("bump", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{
				dhdl.SetReg(written, dhdl.Add(dhdl.Rd(written), dhdl.Rd(tileCnt))),
				dhdl.SetReg(total, dhdl.Add(dhdl.Rd(total), dhdl.Rd(tileCnt))),
			}
		})
	})
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := cl.bind(); err != nil {
		return nil, err
	}
	if err := out.Bind(outData); err != nil {
		return nil, err
	}
	return &Result{Prog: prog, Output: out, OutData: outData, CountReg: total}, nil
}

func lowerHashReduce(p *pattern.HashReducePat, n int, opts Options) (*Result, error) {
	if p.DenseKeys <= 0 {
		return nil, fmt.Errorf("lower: only dense HashReduce (static key space) is supported")
	}
	sm := pattern.Describe(p)
	b := dhdl.NewBuilder("hashreduce", dhdl.Sequential)
	cl := newCollector(b, sm, opts.Tile)
	if err := cl.scan(p.K); err != nil {
		return nil, err
	}
	for _, v := range p.V {
		if err := cl.scan(v); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	var binSRAMs []*dhdl.SRAM
	for vi, v := range p.V {
		elem := v.Type()
		name := fmt.Sprintf("bins%d", vi)
		b.SetOrigin(sm.Path(sm.IDOf(v)))
		s := b.SRAM(name, elem, p.DenseKeys)
		binSRAMs = append(binSRAMs, s)
		var buf *dhdl.DRAMBuf
		var data *pattern.Collection
		if elem == pattern.I32 {
			buf = b.DRAMI32("d_"+name, p.DenseKeys)
			data = pattern.NewI32(name, p.DenseKeys)
		} else {
			buf = b.DRAMF32("d_"+name, p.DenseKeys)
			data = pattern.NewF32(name, p.DenseKeys)
		}
		res.Bins = append(res.Bins, buf)
		res.BinsData = append(res.BinsData, data)
	}

	// Bins start at the combine identity (unhit keys keep it; the
	// reference RunHash leaves them absent instead).
	for vi, s := range binSRAMs {
		s := s
		id, err := identity(p.Combine, p.V[vi].Type())
		if err != nil {
			return nil, err
		}
		var initExpr dhdl.Expr
		if id.T == pattern.I32 {
			initExpr = dhdl.CI(id.I)
		} else {
			initExpr = dhdl.CF(id.F)
		}
		b.SetOrigin(sm.PatternName + "/init")
		b.Compute(fmt.Sprintf("init%d", vi), []dhdl.Counter{dhdl.CPar(p.DenseKeys, opts.Lanes)},
			func(ix []dhdl.Expr) []*dhdl.Assign {
				return []*dhdl.Assign{dhdl.StoreAt(s, ix[0], initExpr)}
			})
	}
	b.SetOrigin(sm.PatternName + "/tiles")
	b.Pipe("tiles", []dhdl.Counter{dhdl.CStep(0, n, opts.Tile)}, func(ix []dhdl.Expr) {
		cl.loads(ix[0])
		b.SetOrigin(sm.PatternName + "/body")
		b.Compute("hash", []dhdl.Counter{dhdl.CPar(opts.Tile, opts.Lanes)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			key, err := cl.translate(p.K, jx[0], dhdl.Add(ix[0], jx[0]))
			if err != nil {
				b.Errf("lower hashreduce: %v", err)
				return nil
			}
			var as []*dhdl.Assign
			for vi, v := range p.V {
				val, err := cl.translate(v, jx[0], dhdl.Add(ix[0], jx[0]))
				if err != nil {
					b.Errf("lower hashreduce: %v", err)
					return nil
				}
				as = append(as, dhdl.AccumAt(binSRAMs[vi], p.Combine, key, val))
			}
			return as
		})
	})
	for vi, s := range binSRAMs {
		b.SetOrigin(fmt.Sprintf("%s/store:bins%d", sm.PatternName, vi))
		b.Store(fmt.Sprintf("st_bins%d", vi), res.Bins[vi], dhdl.CI(0), s, p.DenseKeys)
	}
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := cl.bind(); err != nil {
		return nil, err
	}
	for vi, buf := range res.Bins {
		if err := buf.Bind(res.BinsData[vi]); err != nil {
			return nil, err
		}
	}
	res.Prog = prog
	return res, nil
}
