package workloads

import (
	"fmt"

	"plasticine/internal/dhdl"
	"plasticine/internal/pattern"
)

// SMDV is sparse matrix - dense vector multiplication in COO form: edge
// tiles stream (row, col, val) triples, gather x[col] from DRAM and
// accumulate y[row] on chip (Table 4: 3840x3840 with E[nnz/row]=60, scaled
// to 2048 rows with ~16 nnz/row).
type SMDV struct {
	N, NNZPerRow, TK int

	rows, cols []int32
	vals, x, y []float32
	want       []float32
}

// NewSMDV returns the benchmark at simulation scale.
func NewSMDV() *SMDV { return &SMDV{N: 2048, NNZPerRow: 16, TK: 2048} }

func (w *SMDV) Name() string { return "SMDV" }

func (w *SMDV) ScaleNote() string {
	return fmt.Sprintf("paper 3840x3840 E[nnz/row]=60; simulated %dx%d nnz/row=%d", w.N, w.N, w.NNZPerRow)
}

func (w *SMDV) Program() (*dhdl.Program, error) {
	n, tk := w.N, w.TK
	nnz := n * w.NNZPerRow
	b := dhdl.NewBuilder("smdv", dhdl.Sequential)
	dRow := b.DRAMI32("row", nnz)
	dCol := b.DRAMI32("col", nnz)
	dVal := b.DRAMF32("val", nnz)
	dX := b.DRAMF32("x", n)
	dY := b.DRAMF32("y", n)
	tRow := b.SRAM("trow", pattern.I32, tk)
	tCol := b.SRAM("tcol", pattern.I32, tk)
	tVal := b.SRAM("tval", pattern.F32, tk)
	tXG := b.SRAMBanked("txg", pattern.F32, tk, dhdl.Duplication)
	tY := b.SRAM("ty", pattern.F32, n)

	b.Compute("zeroY", []dhdl.Counter{dhdl.CPar(n, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
		return []*dhdl.Assign{dhdl.StoreAt(tY, ix[0], dhdl.CF(0))}
	})
	b.Pipe("edgeTiles", []dhdl.Counter{dhdl.CStepPar(0, nnz, tk, 2)}, func(ix []dhdl.Expr) {
		b.Load("ldRow", dRow, ix[0], tRow, tk)
		b.Load("ldCol", dCol, ix[0], tCol, tk)
		b.Load("ldVal", dVal, ix[0], tVal, tk)
		b.Gather("gatherX", dX, tCol, tXG, tk, nil)
		b.Compute("acc", []dhdl.Counter{dhdl.CPar(tk, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
			kk := jx[0]
			val := dhdl.Mul(dhdl.Ld(tVal, kk), dhdl.Ld(tXG, kk))
			return []*dhdl.Assign{dhdl.AccumAt(tY, pattern.Add, dhdl.Ld(tRow, kk), val)}
		})
	})
	b.Store("stY", dY, dhdl.CI(0), tY, n)
	return b.Build()
}

func (w *SMDV) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n, nnz := w.N, w.N*w.NNZPerRow
	r := newRNG(0x53D5)
	w.rows = make([]int32, nnz)
	w.cols = make([]int32, nnz)
	w.vals = make([]float32, nnz)
	w.x = make([]float32, n)
	w.y = make([]float32, n)
	for i := 0; i < n; i++ {
		w.x[i] = r.float() - 0.5
	}
	w.want = make([]float32, n)
	for i := 0; i < nnz; i++ {
		row := int32(i / w.NNZPerRow)
		col := int32(r.intn(n))
		v := r.float() - 0.5
		w.rows[i], w.cols[i], w.vals[i] = row, col, v
		w.want[row] += v * w.x[col]
	}
	return bind(p, pattern.FromI32("row", w.rows), pattern.FromI32("col", w.cols),
		pattern.FromF32("val", w.vals), pattern.FromF32("x", w.x), pattern.FromF32("y", w.y))
}

func (w *SMDV) Check(st *dhdl.State) error {
	return checkF32Slice("smdv.y", w.y, w.want, 1e-3)
}

func (w *SMDV) Profile() Profile {
	nnz := float64(w.N * w.NNZPerRow)
	return Profile{
		Flops:          2 * nnz,
		DenseBytes:     4 * (3*nnz + float64(w.N)),
		SparseAccesses: nnz,
		OpsPerLane:     2,
		FPGALogicUtil:  0.273, FPGAMemUtil: 0.31,
		PaperSpeedup: 8.3, PaperPerfWatt: 9.3,
	}
}

// PageRank iteratively updates page ranks by gathering neighbour ranks
// over the edge list (Table 4: 100 iters over 7,680 pages, scaled to 5
// iters over 2048 pages with average degree 8).
type PageRank struct {
	Iters, N, Deg, TK int

	src, dst []int32
	ranks    []float32
	want     []float32
}

// NewPageRank returns the benchmark at simulation scale.
func NewPageRank() *PageRank { return &PageRank{Iters: 5, N: 2048, Deg: 8, TK: 2048} }

func (w *PageRank) Name() string { return "PageRank" }

func (w *PageRank) ScaleNote() string {
	return fmt.Sprintf("paper 100 iters, 7680 pages; simulated %d iters, %d pages, deg %d",
		w.Iters, w.N, w.Deg)
}

const prDamp = 0.85

func (w *PageRank) Program() (*dhdl.Program, error) {
	n, tk := w.N, w.TK
	edges := n * w.Deg
	b := dhdl.NewBuilder("pagerank", dhdl.Sequential)
	dSrc := b.DRAMI32("src", edges)
	dDst := b.DRAMI32("dst", edges)
	dRank := b.DRAMF32("rank", n)
	tSrc := b.SRAM("tsrc", pattern.I32, tk)
	tDst := b.SRAM("tdst", pattern.I32, tk)
	tRG := b.SRAMBanked("trg", pattern.F32, tk, dhdl.Duplication)
	tAcc := b.SRAM("tacc", pattern.F32, n)
	tNew := b.SRAM("tnew", pattern.F32, n)

	b.Seq("iters", []dhdl.Counter{dhdl.C(w.Iters)}, func([]dhdl.Expr) {
		b.Compute("zeroAcc", []dhdl.Counter{dhdl.CPar(n, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.StoreAt(tAcc, ix[0], dhdl.CF(0))}
		})
		b.Pipe("edgeTiles", []dhdl.Counter{dhdl.CStepPar(0, edges, tk, 2)}, func(ix []dhdl.Expr) {
			b.Load("ldSrc", dSrc, ix[0], tSrc, tk)
			b.Load("ldDst", dDst, ix[0], tDst, tk)
			// Gather neighbour ranks from DRAM (sparse reads).
			b.Gather("gatherR", dRank, tSrc, tRG, tk, nil)
			b.Compute("contrib", []dhdl.Counter{dhdl.CPar(tk, 16)}, func(jx []dhdl.Expr) []*dhdl.Assign {
				k := jx[0]
				// All pages have out-degree Deg, so the contribution is
				// rank/Deg.
				val := dhdl.Div(dhdl.Ld(tRG, k), dhdl.CF(float32(w.Deg)))
				return []*dhdl.Assign{dhdl.AccumAt(tAcc, pattern.Add, dhdl.Ld(tDst, k), val)}
			})
		})
		b.Compute("apply", []dhdl.Counter{dhdl.CPar(n, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			p := ix[0]
			val := dhdl.Add(dhdl.CF((1-prDamp)/float32(n)), dhdl.Mul(dhdl.CF(prDamp), dhdl.Ld(tAcc, p)))
			return []*dhdl.Assign{dhdl.StoreAt(tNew, p, val)}
		})
		b.Store("stRank", dRank, dhdl.CI(0), tNew, n)
	})
	return b.Build()
}

func (w *PageRank) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n, edges := w.N, w.N*w.Deg
	r := newRNG(0x9A6E)
	w.src = make([]int32, edges)
	w.dst = make([]int32, edges)
	for u := 0; u < n; u++ {
		for e := 0; e < w.Deg; e++ {
			w.src[u*w.Deg+e] = int32(u)
			w.dst[u*w.Deg+e] = int32(r.intn(n))
		}
	}
	// Shuffle the edge list so rank gathers hit DRAM in random order, as
	// they would for a real graph's in-edge lists.
	for i := edges - 1; i > 0; i-- {
		j := r.intn(i + 1)
		w.src[i], w.src[j] = w.src[j], w.src[i]
		w.dst[i], w.dst[j] = w.dst[j], w.dst[i]
	}
	w.ranks = make([]float32, n)
	for i := range w.ranks {
		w.ranks[i] = 1 / float32(n)
	}
	// Golden reference with the same float32 update order.
	ranks := append([]float32(nil), w.ranks...)
	for it := 0; it < w.Iters; it++ {
		acc := make([]float32, n)
		for e := 0; e < edges; e++ {
			acc[w.dst[e]] += ranks[w.src[e]] / float32(w.Deg)
		}
		for p := 0; p < n; p++ {
			ranks[p] = (1-prDamp)/float32(n) + prDamp*acc[p]
		}
	}
	w.want = ranks
	return bind(p, pattern.FromI32("src", w.src), pattern.FromI32("dst", w.dst),
		pattern.FromF32("rank", w.ranks))
}

func (w *PageRank) Check(st *dhdl.State) error {
	return checkF32Slice("pagerank.rank", w.ranks, w.want, 1e-3)
}

func (w *PageRank) Profile() Profile {
	edges := float64(w.N * w.Deg)
	it := float64(w.Iters)
	return Profile{
		Flops:          it * (2*edges + 2*float64(w.N)),
		DenseBytes:     it * 4 * (2*edges + float64(w.N)),
		SparseAccesses: it * edges,
		OpsPerLane:     2,
		SeqIters:       w.Iters,
		SeqChildren:    4,
		PipeDepth:      20,
		FPGALogicUtil:  0.313, FPGAMemUtil: 0.334,
		PaperSpeedup: 14.2, PaperPerfWatt: 18.2,
	}
}

// BFS performs a frontier-based breadth-first traversal over a layered
// graph with uniform out-degree, gathering adjacency lists and scattering
// discovered levels each iteration (Table 4: E[edges/node]=8 x 10 layers,
// scaled to 2048 nodes).
type BFS struct {
	N, Deg, Layers, MaxFront int

	adj    []int32
	levels []int32
	want   []int32
}

// NewBFS returns the benchmark at simulation scale.
func NewBFS() *BFS { return &BFS{N: 2048, Deg: 8, Layers: 10, MaxFront: 512} }

func (w *BFS) Name() string { return "BFS" }

func (w *BFS) ScaleNote() string {
	return fmt.Sprintf("paper E[edges/node]=8 x 10 layers; simulated %d nodes, deg %d, %d layers",
		w.N, w.Deg, w.Layers)
}

func (w *BFS) Program() (*dhdl.Program, error) {
	n, deg, mf := w.N, w.Deg, w.MaxFront
	b := dhdl.NewBuilder("bfs", dhdl.Sequential)
	dAdj := b.DRAMI32("adj", n*deg)
	dLev := b.DRAMI32("levels", n)
	tFront := b.SRAM("tfront", pattern.I32, mf)
	tAddr := b.SRAM("taddr", pattern.I32, mf*deg)
	tNbr := b.SRAM("tnbr", pattern.I32, mf*deg)
	tLev := b.SRAM("tlev", pattern.I32, n)
	tScat := b.SRAM("tscat", pattern.I32, mf)
	nextF := b.FIFO("nextf", pattern.I32, mf)
	fsz := b.Reg("fsz", pattern.VI(0))
	nEdges := b.Reg("nedges", pattern.VI(0))
	nNext := b.Reg("nnext", pattern.VI(0))

	// Initialise levels to -1 and seed the frontier with node 0.
	b.Compute("initLev", []dhdl.Counter{dhdl.CPar(n, 16)}, func(ix []dhdl.Expr) []*dhdl.Assign {
		return []*dhdl.Assign{dhdl.StoreAt(tLev, ix[0], dhdl.CI(-1))}
	})
	b.Compute("seed", nil, func([]dhdl.Expr) []*dhdl.Assign {
		return []*dhdl.Assign{
			dhdl.StoreAt(tFront, dhdl.CI(0), dhdl.CI(0)),
			dhdl.StoreAt(tLev, dhdl.CI(0), dhdl.CI(0)),
			dhdl.SetReg(fsz, dhdl.CI(1)),
		}
	})
	b.Seq("levels", []dhdl.Counter{dhdl.C(w.Layers)}, func(lx []dhdl.Expr) {
		lvl := dhdl.Add(lx[0], dhdl.CI(1))
		// Expand: neighbour addresses of every frontier node.
		b.Compute("expand", []dhdl.Counter{dhdl.CDyn(fsz), dhdl.C(deg)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			i, e := ix[0], ix[1]
			u := dhdl.Ld(tFront, i)
			addr := dhdl.Add(dhdl.Mul(i, dhdl.CI(int32(deg))), e)
			return []*dhdl.Assign{
				dhdl.StoreAt(tAddr, addr, dhdl.Add(dhdl.Mul(u, dhdl.CI(int32(deg))), e)),
			}
		})
		b.Compute("countEdges", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(nEdges, dhdl.Mul(dhdl.Rd(fsz), dhdl.CI(int32(deg))))}
		})
		b.Gather("gatherNbr", dAdj, tAddr, tNbr, 0, nEdges)
		// Visit neighbours sequentially: random writes must be
		// sequentialized (Section 2.2).
		b.Compute("visit", []dhdl.Counter{dhdl.CDyn(nEdges)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			v := dhdl.Ld(tNbr, ix[0])
			fresh := dhdl.Eq(dhdl.Ld(tLev, v), dhdl.CI(-1))
			// The level write comes last: assigns execute in order and the
			// freshness test must see the pre-visit state.
			return []*dhdl.Assign{
				{Kind: dhdl.PushFIFO, FIFO: nextF, Cond: fresh, Val: v},
				dhdl.AccumIf(nNext, pattern.Add, fresh, dhdl.CI(1)),
				dhdl.StoreAtIf(tLev, fresh, v, lvl),
			}
		})
		// Drain the next frontier into the frontier buffer and scatter the
		// discovered levels back to DRAM.
		b.Compute("drain", []dhdl.Counter{dhdl.CDyn(nNext)}, func(ix []dhdl.Expr) []*dhdl.Assign {
			v := dhdl.Pop(nextF)
			return []*dhdl.Assign{
				dhdl.StoreAt(tFront, ix[0], v),
				dhdl.StoreAt(tScat, ix[0], lvl),
			}
		})
		b.Scatter("scatterLev", dLev, tFront, tScat, 0, nNext)
		b.Compute("advance", nil, func([]dhdl.Expr) []*dhdl.Assign {
			return []*dhdl.Assign{dhdl.SetReg(fsz, dhdl.Rd(nNext))}
		})
	})
	return b.Build()
}

func (w *BFS) Build() (*dhdl.Program, error) {
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	n, deg, mf := w.N, w.Deg, w.MaxFront
	// Layered graph: layer sizes grow geometrically and then saturate so a
	// 10-layer traversal covers the graph.
	sizes := []int{1, 7, 56, 200, 256, 320, 320, 320, 320, 248}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != n {
		return nil, fmt.Errorf("bfs: layer sizes sum to %d, want %d", total, n)
	}
	starts := make([]int, len(sizes)+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
	}
	r := newRNG(0xBF5)
	w.adj = make([]int32, n*deg)
	wantLev := make([]int32, n)
	for i := range wantLev {
		wantLev[i] = -1
	}
	for l := 0; l < len(sizes); l++ {
		for u := starts[l]; u < starts[l+1]; u++ {
			for e := 0; e < deg; e++ {
				var tgt int
				if l+1 < len(sizes) {
					tgt = starts[l+1] + r.intn(sizes[l+1])
				} else {
					tgt = r.intn(starts[1]) // back edges; already visited
				}
				w.adj[u*deg+e] = int32(tgt)
			}
		}
	}
	// Golden reference replicating the device's visit order.
	wantLev[0] = 0
	frontier := []int32{0}
	for lvl := int32(1); lvl <= int32(w.Layers); lvl++ {
		var next []int32
		for _, u := range frontier {
			for e := 0; e < deg; e++ {
				v := w.adj[int(u)*deg+e]
				if wantLev[v] == -1 {
					wantLev[v] = lvl
					next = append(next, v)
				}
			}
		}
		if len(next) > mf {
			return nil, fmt.Errorf("bfs: frontier %d exceeds capacity %d", len(next), mf)
		}
		frontier = next
	}
	w.want = wantLev
	w.levels = make([]int32, n)
	for i := range w.levels {
		w.levels[i] = -1
	}
	w.levels[0] = 0 // seed's level is written on chip before any scatter
	return bind(p, pattern.FromI32("adj", w.adj), pattern.FromI32("levels", w.levels))
}

func (w *BFS) Check(st *dhdl.State) error {
	return checkI32Slice("bfs.levels", w.levels, w.want)
}

func (w *BFS) Profile() Profile {
	edges := float64(w.N * w.Deg)
	return Profile{
		Flops:          3 * edges,
		DenseBytes:     4 * float64(w.N),
		SparseAccesses: 2 * edges, // gathers plus scatters
		OpsPerLane:     3,
		SeqIters:       w.Layers,
		SeqChildren:    6,
		PipeDepth:      20,
		FPGALogicUtil:  0.253, FPGAMemUtil: 0.459,
		PaperSpeedup: 7.3, PaperPerfWatt: 11.4,
	}
}
