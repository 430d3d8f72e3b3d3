package dhdl

import "plasticine/internal/pattern"

// This file runs eligible Compute bodies a tile of lanes at a time, the way
// a PCU runs its innermost counter across its SIMD lanes and chains each
// multiply into the reduction stage behind it (Section 3.1). A tile is
// whole rows of the next-outer counter, each row holding every iteration of
// the innermost counter, up to tileLanes lanes. Where fewer than two rows
// fit, or the chain has one counter, or the innermost limit is dynamic, a
// tile is one row of up to laneBlock consecutive iterations: a block. Every
// expression of the body is evaluated once per tile, by its shape:
//
//   - a tile-invariant subtree yields one word, from its scalar closure;
//   - a subtree that reads the row counter but not the innermost one yields
//     one word per row: an i32 row-affine one its first row's word plus a
//     constant step per row, a load from such an address a gather across
//     rows, anything else one scalar call per row, with the counters and
//     affine registers moved to that row's first lane;
//   - a lane-affine i32 subtree yields each row's word in its first lane,
//     the same way, and a constant difference between neighbouring lanes;
//   - anything else fills a vector with one word per lane, row-major.
//
// An expression pointer shared within the body is evaluated once per tile.
// Evaluation has no side effects, so a tile that faults (an address out of
// range, an i32 division by zero, even in a Mux arm or a lane whose
// condition fails) is abandoned before anything commits, with the counters
// and affine registers back at its first lane. A tile of several rows
// reruns them one row at a time; a block reruns through the scalar
// closures, which report exactly the error the scalar path would.
// Otherwise the tile commits in scalar row-major order, assigns in body
// order, so every memory sees the stores and reductions of the scalar loop
// in the same order.

const (
	// laneBlock is the most iterations a one-row tile evaluates together.
	laneBlock = 64
	// tileLanes is the most iterations a tile of several rows evaluates
	// together.
	tileLanes = 256
)

// laneEligible reports whether a compute body can run a tile of lanes at
// a time: it has an innermost counter stepping up, pops and pushes no FIFO,
// reads no SRAM or register that one of its own WriteSRAM, ReduceSRAM or
// WriteReg assigns writes (a ReduceReg publishes only when the execution
// ends, so its target may be read), and combines with no op that can
// fault. Its iterations are then independent until they commit.
func laneEligible(ctl *Controller) bool {
	if len(ctl.Chain) == 0 || int32(ctl.Chain[len(ctl.Chain)-1].Step) < 1 {
		return false
	}
	written := map[any]bool{}
	for _, a := range ctl.Body {
		switch a.Kind {
		case PushFIFO:
			return false
		case WriteSRAM, ReduceSRAM:
			written[a.SRAM] = true
		case WriteReg:
			written[a.Reg] = true
		}
		if (a.Kind == ReduceSRAM || a.Kind == ReduceReg) && (a.Combine == pattern.Div || a.Combine == pattern.Mod) {
			return false
		}
	}
	for _, a := range ctl.Body {
		for _, m := range a.reads(nil) {
			if _, pop := m.(*FIFOMem); pop || written[m] {
				return false
			}
		}
	}
	return true
}

// tileShape is how many rows one tile of an eligible body holds, and how
// many lanes each row: rows of the next-outer counter when the innermost
// limit is static and two rows fit in tileLanes; one row otherwise.
func tileShape(ctl *Controller) (rows, cols int) {
	k := len(ctl.Chain)
	if k < 2 || ctl.Chain[k-1].MaxReg != nil || int32(ctl.Chain[k-2].Step) < 1 {
		return 1, 0
	}
	in := ctl.Chain[k-1]
	if cols = span(int32(in.Min), int32(in.Max), int32(in.Step), tileLanes); cols < 1 || 2*cols > tileLanes {
		return 1, 0
	}
	return tileLanes / cols, cols
}

// span is how many iterations a counter at value i has left before max,
// up to most.
func span(i, max, step int32, most int) int {
	return int(min((int64(max)-int64(i)+int64(step)-1)/int64(step), int64(most)))
}

// laneFault abandons a tile; the rerun finds the real error.
type laneFault struct{}

// laneShape says how an expression varies across a tile's lanes.
type laneShape uint8

const (
	uniform laneShape = iota // one word for every lane
	rowwise                  // one word per row
	strided                  // i32: each row's first word, plus delta·k in lane k of the row
	varying                  // one word per lane, from vec
)

// laneNode is one expression compiled for whole tiles.
type laneNode struct {
	shape laneShape
	first word            // uniform: the tile's word
	rows  func() []uint32 // rowwise, strided: the word in each row's first lane
	delta uint32          // strided: the change from one lane to the next
	vec   func() []uint32 // varying: the tile's words, row-major
}

// rowConst reports whether nd holds one word along each row.
func (nd *laneNode) rowConst() bool { return nd.shape == uniform || nd.shape == rowwise }

// laneBody is an eligible compute body compiled for tiles.
type laneBody struct {
	rows, cols int    // the current tile: rows of cols lanes
	gen        uint64 // counts tiles, so shared nodes evaluate once per tile
	lane       *int32 // the innermost counter
	assigns    []*laneAssign
	laneMajor  bool // two assigns write one memory: commit lane by lane
	fused      int  // assigns that accumulate a product without a vector

	// A tiled body (tile > 1) moves the row counter, the innermost counter
	// and the affine registers to the first lane of each row in turn for
	// its scalar calls per row, and back to the tile's first row after.
	tile, rowLen    int // rows in a full tile, and lanes in each
	row             *int32
	r0, rstep, lmin int32 // the tile's first row, the row step, each row's first lane
	vals            []int32
	rowShifts       []affineShift // affine partials that step with the row counter
	rowBase         []int32       // and their values in the tile's first row
	enter           []affineShift // the innermost loop's entry: each form's address
}

// eval evaluates every assign over the tile of rows×cols lanes whose first
// lane the counters and affine registers hold. It reports false, having
// changed no memory and with the counters and registers back at the first
// lane, if the tile faulted.
func (lb *laneBody) eval(rows, cols int) (ok bool) {
	defer func() {
		if !ok {
			switch r := recover(); r.(type) {
			case laneFault, interpError, *pattern.EvalError:
			default:
				panic(r)
			}
			if rows > 1 {
				lb.at(0)
			}
		}
	}()
	lb.rows, lb.cols = rows, cols
	lb.gen++
	if rows > 1 {
		lb.r0 = *lb.row
		for k, s := range lb.rowShifts {
			lb.rowBase[k] = lb.vals[s.to]
		}
	}
	for _, la := range lb.assigns {
		la.eval(lb)
	}
	return true
}

// at moves the counters and affine registers to the first lane of row r of
// the tile, where the scalar loop would have them.
func (lb *laneBody) at(r int) {
	*lb.row = lb.r0 + int32(r)*lb.rstep
	*lb.lane = lb.lmin
	for k, s := range lb.rowShifts {
		lb.vals[s.to] = lb.rowBase[k] + int32(r)*s.d
	}
	for _, s := range lb.enter {
		lb.vals[s.to] = lb.vals[s.to-1] + s.d
	}
}

// each fills out, one word per row, from one call of f at each row's first
// lane.
func (lb *laneBody) each(f word, out []uint32) {
	if len(out) == 1 {
		out[0] = f()
		return
	}
	for r := range out {
		lb.at(r)
		out[r] = f()
	}
	lb.at(0)
}

// commit stores the evaluated tile. Assigns to distinct memories commit
// one after another, each across all lanes in row-major order; that is the
// scalar order as far as any memory can tell.
func (lb *laneBody) commit() {
	if !lb.laneMajor {
		for _, la := range lb.assigns {
			la.commitTile(lb.rows, lb.cols)
		}
		return
	}
	for k := 0; k < lb.rows*lb.cols; k++ {
		for _, la := range lb.assigns {
			la.commitLane(k)
		}
	}
}

// laneAssign is one output of a lane body.
type laneAssign struct {
	kind             AssignKind
	cond, val, addr  *laneNode
	conds, vals, ads func() []uint32 // vector forms of cond, val and addr
	bases            func() []uint32 // per-row form of a non-varying addr
	mem              []uint32        // SRAM destination
	reg              *uint32         // WriteReg target, or ReduceReg accumulator
	combine          func(a, b uint32) uint32
	fsum             bool
	mac              *laneMAC // a fused multiply-accumulate: val is not built

	// The evaluated tile.
	skip bool     // a tile-invariant condition failed
	c, v []uint32 // per-lane conditions (nil: all hold) and values
	av   []uint32 // per-lane addresses; nil when bs and d give them
	bs   []uint32 // each row's address in its first lane
	d    int32
}

func (la *laneAssign) eval(lb *laneBody) {
	la.skip, la.c, la.av, la.bs = false, nil, nil, nil
	if la.cond != nil {
		if la.cond.shape == uniform {
			if la.skip = la.cond.first() == 0; la.skip {
				return
			}
		} else {
			la.c = la.conds()
		}
	}
	if m := la.mac; m != nil {
		m.x, m.y = m.xs(), m.ys()
	} else {
		la.v = la.vals()
	}
	if la.mem == nil {
		return
	}
	if la.addr.shape != varying && la.c == nil && !lb.laneMajor {
		la.bs, la.d = la.bases(), int32(la.addr.delta)
		for _, a := range la.bs {
			if !spans(int32(a), la.d, lb.cols, len(la.mem)) {
				panic(laneFault{})
			}
		}
		return
	}
	la.av = la.ads()
	for k, w := range la.av {
		if (la.c == nil || la.c[k] != 0) && (int32(w) < 0 || int(int32(w)) >= len(la.mem)) {
			panic(laneFault{})
		}
	}
}

// spans reports whether base + d·k lies in [0, size) for every k < n. It
// never wraps, so those are the addresses the i32 arithmetic yields.
func spans(base, d int32, n, size int) bool {
	last := int64(base) + int64(d)*int64(n-1)
	return base >= 0 && int(base) < size && last >= 0 && last < int64(size)
}

func (la *laneAssign) commitTile(rows, cols int) {
	switch {
	case la.skip:
	case la.mac != nil:
		la.mac.commit(la, rows, cols)
	case la.bs != nil:
		for r, a := range la.bs {
			la.commitRow(int32(a), la.v[r*cols:(r+1)*cols])
		}
	case la.kind == ReduceReg && la.fsum:
		acc, k := sumLanes(fv(*la.reg), la.v, la.c)
		w := fw(acc)
		for ; k < len(la.v); k++ {
			if la.c == nil || la.c[k] != 0 {
				w = la.combine(w, la.v[k])
			}
		}
		*la.reg = w
	case la.kind == WriteReg && la.c == nil:
		*la.reg = la.v[len(la.v)-1]
	default:
		for k := range la.v {
			la.commitLane(k)
		}
	}
}

// commitRow stores one row's values at a, a+d, a+2d and so on.
func (la *laneAssign) commitRow(a int32, vs []uint32) {
	mem, d := la.mem, la.d
	switch {
	case la.kind == WriteSRAM && d == 1:
		copy(mem[a:], vs)
	case la.kind == WriteSRAM:
		for _, v := range vs {
			mem[a] = v
			a += d
		}
	default:
		k := 0
		if la.fsum {
			for ; k < len(vs); k++ {
				sum := fv(mem[a]) + fv(vs[k])
				if sum != sum {
					break // NaN: the op decides its payload (see f32Lanes)
				}
				mem[a] = fw(sum)
				a += d
			}
		}
		for ; k < len(vs); k++ {
			mem[a] = la.combine(mem[a], vs[k])
			a += d
		}
	}
}

func (la *laneAssign) commitLane(k int) {
	if la.skip || la.c != nil && la.c[k] == 0 {
		return
	}
	switch v := la.v[k]; la.kind {
	case WriteSRAM:
		la.mem[la.av[k]] = v
	case ReduceSRAM:
		la.mem[la.av[k]] = la.combine(la.mem[la.av[k]], v)
	case WriteReg:
		*la.reg = v
	case ReduceReg:
		*la.reg = la.combine(*la.reg, v)
	}
}

// sumLanes adds v to acc in lane order, skipping lanes whose condition
// fails (c nil: none does), and stops before the first NaN sum, whose
// payload the op decides (see f32Lanes). It returns the sum and the lanes
// it consumed.
func sumLanes(acc float32, v, c []uint32) (float32, int) {
	if c == nil {
		for k, w := range v {
			sum := acc + fv(w)
			if sum != sum {
				return acc, k
			}
			acc = sum
		}
		return acc, len(v)
	}
	c = c[:len(v)]
	for k, w := range v {
		if c[k] != 0 {
			sum := acc + fv(w)
			if sum != sum {
				return acc, k
			}
			acc = sum
		}
	}
	return acc, len(v)
}

// laneMAC is a ReduceSRAM or ReduceReg f32 sum of an f32 product that the
// body uses nowhere else and that varies along a row. Its commit adds
// float32(x·y) lane by lane without building the product vector.
type laneMAC struct {
	mul        func(a, b uint32) uint32 // the scalar Mul op
	xVar, yVar bool                     // which operands vary along a row
	xs, ys     func() []uint32          // a varying operand's vector, another's per-row words
	x, y       []uint32                 // the evaluated tile's
}

// commit accumulates the tile row by row. Each row runs a tight loop until
// its first NaN product or sum; the rest of that row goes through exact,
// whose scalar ops decide the payload.
func (m *laneMAC) commit(la *laneAssign, rows, cols int) {
	for r := 0; r < rows; r++ {
		lo, hi := r*cols, (r+1)*cols
		var s float32
		var v, w []uint32
		switch {
		case !m.xVar:
			s, v = fv(m.x[r]), m.y[lo:hi]
		case !m.yVar:
			s, v = fv(m.y[r]), m.x[lo:hi]
		default:
			v, w = m.x[lo:hi], m.y[lo:hi]
		}
		var acc float32
		k := 0
		switch {
		case la.kind == ReduceReg:
			var c []uint32
			if la.c != nil {
				c = la.c[lo:hi]
			}
			acc, k = macSum(fv(*la.reg), s, v, w, c)
			*la.reg = fw(acc)
		case la.av != nil && la.c == nil:
			k = macAt(la.mem, la.av[lo:hi], s, v, w)
		case la.av != nil: // a condition on an SRAM target: all exact
		case la.d == 0:
			a := la.bs[r]
			acc, k = macSum(fv(la.mem[a]), s, v, w, nil)
			la.mem[a] = fw(acc)
		default:
			k = macRow(la.mem, int32(la.bs[r]), la.d, s, v, w)
		}
		for k += lo; k < hi; k++ {
			m.exact(la, r, k, cols)
		}
	}
}

// exact commits lane k, in row r, the scalar way: the scalar Mul op on the
// operands in source order, then the combine op.
func (m *laneMAC) exact(la *laneAssign, r, k, cols int) {
	if la.c != nil && la.c[k] == 0 {
		return
	}
	x, y := m.x[r], m.y[r]
	if m.xVar {
		x = m.x[k]
	}
	if m.yVar {
		y = m.y[k]
	}
	p := m.mul(x, y)
	switch {
	case la.kind == ReduceReg:
		*la.reg = la.combine(*la.reg, p)
	case la.av != nil:
		la.mem[la.av[k]] = la.combine(la.mem[la.av[k]], p)
	default:
		a := int32(la.bs[r]) + int32(k-r*cols)*la.d
		la.mem[a] = la.combine(la.mem[a], p)
	}
}

// macSum adds float32(x·y) to acc for every lane whose condition holds (c
// nil: every lane), x·y being s·v[k], or v[k]·w[k] when w is set. Away from
// NaN the product is the same in either operand order. It stops before the
// first NaN sum (a NaN product makes one) and returns the sum and the lanes
// it consumed.
func macSum(acc, s float32, v, w, c []uint32) (float32, int) {
	switch {
	case w == nil && c == nil:
		for k, b := range v {
			sum := acc + float32(s*fv(b))
			if sum != sum {
				return acc, k
			}
			acc = sum
		}
	case w == nil:
		c = c[:len(v)]
		for k, b := range v {
			if c[k] != 0 {
				sum := acc + float32(s*fv(b))
				if sum != sum {
					return acc, k
				}
				acc = sum
			}
		}
	case c == nil:
		w = w[:len(v)]
		for k, a := range v {
			sum := acc + float32(fv(a)*fv(w[k]))
			if sum != sum {
				return acc, k
			}
			acc = sum
		}
	default:
		w, c = w[:len(v)], c[:len(v)]
		for k, a := range v {
			if c[k] != 0 {
				sum := acc + float32(fv(a)*fv(w[k]))
				if sum != sum {
					return acc, k
				}
				acc = sum
			}
		}
	}
	return acc, len(v)
}

// macRow is macSum into mem[a], mem[a+d], mem[a+2d] and so on, for d != 0:
// it returns how many lanes it added before the first NaN sum.
func macRow(mem []uint32, a, d int32, s float32, v, w []uint32) int {
	if d == 1 {
		m := mem[a:][:len(v)]
		if w == nil {
			for k, b := range v {
				sum := fv(m[k]) + float32(s*fv(b))
				if sum != sum {
					return k
				}
				m[k] = fw(sum)
			}
			return len(v)
		}
		w = w[:len(v)]
		for k, b := range v {
			sum := fv(m[k]) + float32(fv(b)*fv(w[k]))
			if sum != sum {
				return k
			}
			m[k] = fw(sum)
		}
		return len(v)
	}
	if w == nil {
		for k, b := range v {
			sum := fv(mem[a]) + float32(s*fv(b))
			if sum != sum {
				return k
			}
			mem[a] = fw(sum)
			a += d
		}
		return len(v)
	}
	w = w[:len(v)]
	for k, b := range v {
		sum := fv(mem[a]) + float32(fv(b)*fv(w[k]))
		if sum != sum {
			return k
		}
		mem[a] = fw(sum)
		a += d
	}
	return len(v)
}

// macAt is macSum into mem[av[k]] for each lane k in turn: it returns how
// many lanes it added before the first NaN sum.
func macAt(mem, av []uint32, s float32, v, w []uint32) int {
	av = av[:len(v)]
	if w == nil {
		for k, b := range v {
			a := av[k]
			sum := fv(mem[a]) + float32(s*fv(b))
			if sum != sum {
				return k
			}
			mem[a] = fw(sum)
		}
		return len(v)
	}
	w = w[:len(v)]
	for k, b := range v {
		a := av[k]
		sum := fv(mem[a]) + float32(fv(b)*fv(w[k]))
		if sum != sum {
			return k
		}
		mem[a] = fw(sum)
	}
	return len(v)
}

// laneCompiler compiles the expressions of one lane body.
type laneCompiler struct {
	ec      *exprCompiler
	lb      *laneBody
	level   int   // the innermost counter's level
	step    int32 // and its step
	row     int   // the row counter's level in a tiled body; -1 otherwise
	rowStep int32
	size    int // the most lanes in a tile
	nodes   map[Expr]*laneNode
	uses    map[Expr]int   // references to each expression within the body
	reads   map[Expr]uint8 // readsLane and readsRow bits
}

const (
	readsLane uint8 = 1 << iota
	readsRow
)

// laneBody compiles an eligible compute body for tiles. accs holds the
// scalar path's ReduceReg accumulators, which both paths share, and aff the
// leaf's affine registers, which a tile moves row by row.
func (c *progCompiler) laneBody(ctl *Controller, ec *exprCompiler, accs []*uint32, aff *affineRegs) *laneBody {
	inner := len(ctl.Chain) - 1
	lc := &laneCompiler{ec: ec, level: ctl.Depth + inner, step: int32(ctl.Chain[inner].Step), row: -1,
		size: laneBlock, nodes: map[Expr]*laneNode{}, uses: map[Expr]int{}, reads: map[Expr]uint8{}}
	lb := &laneBody{lane: &c.env[lc.level]}
	lb.tile, lb.rowLen = tileShape(ctl)
	lc.lb = lb
	if lb.tile > 1 {
		lc.row, lc.rowStep = lc.level-1, int32(ctl.Chain[inner-1].Step)
		lc.size = max(laneBlock, lb.tile*lb.rowLen)
		lb.row, lb.rstep, lb.lmin = &c.env[lc.row], lc.rowStep, int32(ctl.Chain[inner].Min)
		lb.vals, lb.rowShifts, lb.enter = aff.vals, aff.step[inner-1], aff.enter[inner]
		lb.rowBase = make([]int32, len(lb.rowShifts))
	}
	var count func(e Expr)
	count = func(e Expr) {
		if lc.uses[e]++; lc.uses[e] == 1 {
			for _, ch := range e.children() {
				count(ch)
			}
		}
	}
	dests := map[any]bool{}
	for _, a := range ctl.Body {
		for _, e := range []Expr{a.Cond, a.Val, a.Addr} {
			if e != nil {
				count(e)
			}
		}
		var dest any
		switch a.Kind {
		case WriteSRAM, ReduceSRAM:
			dest = a.SRAM
		case WriteReg:
			dest = a.Reg
		default:
			continue
		}
		lb.laneMajor = lb.laneMajor || dests[dest]
		dests[dest] = true
	}
	for i, a := range ctl.Body {
		la := &laneAssign{kind: a.Kind}
		if a.Cond != nil {
			la.cond = lc.node(a.Cond)
			la.conds = lc.vector(la.cond)
		}
		elem := a.Val.Type()
		if a.Kind == ReduceSRAM || a.Kind == ReduceReg {
			la.combine, _ = binary(a.Combine, elem)
			la.fsum = a.Combine == pattern.Add && elem == pattern.F32
		}
		if mul, ok := a.Val.(*Bin); ok && la.fsum && !lb.laneMajor && mul.Op == pattern.Mul && lc.uses[mul] == 1 {
			la.mac = lc.mac(mul)
		}
		if la.mac == nil {
			la.val = lc.node(a.Val)
			la.vals = lc.vector(la.val)
		} else {
			lb.fused++
		}
		switch a.Kind {
		case WriteSRAM, ReduceSRAM:
			la.mem = c.sram(a.SRAM)
			la.addr = lc.node(a.Addr)
			la.ads = lc.vector(la.addr)
			if la.addr.shape != varying {
				la.bases = lc.perRow(la.addr)
			}
		case WriteReg:
			la.reg = c.reg(a.Reg)
		case ReduceReg:
			la.reg = accs[i]
		}
		lb.assigns = append(lb.assigns, la)
	}
	return lb
}

// mac compiles a product for a fused multiply-accumulate; nil unless one of
// its operands varies along a row.
func (lc *laneCompiler) mac(mul *Bin) *laneMAC {
	x, y := lc.node(mul.X), lc.node(mul.Y)
	if x.rowConst() && y.rowConst() {
		return nil
	}
	f, _ := binary(pattern.Mul, pattern.F32)
	m := &laneMAC{mul: f, xVar: !x.rowConst(), yVar: !y.rowConst()}
	m.xs, m.ys = lc.operand(x), lc.operand(y)
	return m
}

// operand is a varying node's vector, and any other node's per-row words.
func (lc *laneCompiler) operand(nd *laneNode) func() []uint32 {
	if nd.rowConst() {
		return lc.perRow(nd)
	}
	return lc.vector(nd)
}

// readMask reports whether e reads the innermost counter and the row
// counter.
func (lc *laneCompiler) readMask(e Expr) uint8 {
	m, ok := lc.reads[e]
	if !ok {
		if c, isCtr := e.(*Ctr); isCtr {
			switch c.Level {
			case lc.level:
				m = readsLane
			case lc.row:
				m = readsRow
			}
		}
		for _, ch := range e.children() {
			m |= lc.readMask(ch)
		}
		lc.reads[e] = m
	}
	return m
}

// node compiles e once per pointer, memoising shared nodes per tile.
func (lc *laneCompiler) node(e Expr) *laneNode {
	if nd, ok := lc.nodes[e]; ok {
		return nd
	}
	nd := lc.build(e)
	if lc.uses[e] > 1 && len(e.children()) > 0 {
		lb, seen := lc.lb, uint64(0)
		switch f := nd.first; nd.shape {
		case uniform:
			var w uint32
			nd.first = func() uint32 {
				if seen != lb.gen {
					w, seen = f(), lb.gen
				}
				return w
			}
		case rowwise, strided:
			nd.rows = lb.once(nd.rows)
		case varying:
			nd.vec = lb.once(nd.vec)
		}
	}
	lc.nodes[e] = nd
	return nd
}

// once memoises f for the tile.
func (lb *laneBody) once(f func() []uint32) func() []uint32 {
	var ws []uint32
	seen := uint64(0)
	return func() []uint32 {
		if seen != lb.gen {
			ws, seen = f(), lb.gen
		}
		return ws
	}
}

// scalar is e's scalar closure: its affine address register if it has
// one, which holds its value at the counters' current lane.
func (lc *laneCompiler) scalar(e Expr) word {
	if p := lc.ec.aff[e]; p != nil {
		return func() uint32 { return uint32(*p) }
	}
	w, _ := lc.ec.expr(e)
	return w
}

// perRow returns a non-varying node's word in each row's first lane.
func (lc *laneCompiler) perRow(nd *laneNode) func() []uint32 {
	if nd.shape != uniform {
		return nd.rows
	}
	buf, lb, first := make([]uint32, lc.lb.tile), lc.lb, nd.first
	return func() []uint32 {
		out, w := buf[:lb.rows], first()
		for r := range out {
			out[r] = w
		}
		return out
	}
}

// vector returns the tile's words of nd, one per lane.
func (lc *laneCompiler) vector(nd *laneNode) func() []uint32 {
	if nd.shape == varying {
		return nd.vec
	}
	buf, lb, rows, d := make([]uint32, lc.size), lc.lb, lc.perRow(nd), nd.delta
	return func() []uint32 {
		cols := lb.cols
		out := buf[:lb.rows*cols]
		for r, w := range rows() {
			row := out[r*cols : (r+1)*cols]
			for k := range row {
				row[k] = w
				w += d
			}
		}
		return out
	}
}

func (lc *laneCompiler) build(e Expr) *laneNode {
	m := lc.readMask(e)
	if m&readsLane == 0 {
		return lc.rowNode(e, m)
	}
	if e.Type() == pattern.I32 {
		if stride, ok := LaneStride(e, lc.level); ok {
			// Exact in wrapping 32-bit arithmetic, as the i32 ops are.
			nd := lc.rowNode(e, m)
			if d := uint32(stride) * uint32(lc.step); d != 0 {
				return &laneNode{shape: strided, rows: lc.perRow(nd), delta: d}
			}
			return nd
		}
	}
	buf, lb := make([]uint32, lc.size), lc.lb
	out := func() []uint32 { return buf[:lb.rows*lb.cols] }
	nd := &laneNode{shape: varying}
	switch n := e.(type) {
	case *SRAMRd:
		nd.vec = lc.load(n, out)
	case *ToF32:
		x := lc.vector(lc.node(n.X))
		nd.vec = func() []uint32 {
			o := out()
			for k, w := range x()[:len(o)] {
				o[k] = fw(float32(int32(w)))
			}
			return o
		}
	case *ToI32:
		x := lc.vector(lc.node(n.X))
		nd.vec = func() []uint32 {
			o := out()
			for k, w := range x()[:len(o)] {
				o[k] = uint32(int32(fv(w)))
			}
			return o
		}
	case *Mux:
		c, t, f := lc.vector(lc.node(n.Cond)), lc.vector(lc.node(n.T)), lc.vector(lc.node(n.F))
		nd.vec = func() []uint32 {
			o := out()
			cs, ts, fs := c()[:len(o)], t()[:len(o)], f()[:len(o)]
			for k := range o {
				if cs[k] != 0 {
					o[k] = ts[k]
				} else {
					o[k] = fs[k]
				}
			}
			return o
		}
	case *Un:
		op, _ := unary(n.Op, n.X.Type())
		x := lc.vector(lc.node(n.X))
		nd.vec = func() []uint32 {
			o := out()
			for k, w := range x()[:len(o)] {
				o[k] = op(w)
			}
			return o
		}
	case *Bin:
		nd.vec = lc.binary(n, out)
	default:
		ifail("cannot evaluate %T across lanes", e)
	}
	return nd
}

// rowNode compiles e, which holds one word along each row (or, for a
// strided e, the word in each row's first lane): one word per tile unless
// it reads the row counter.
func (lc *laneCompiler) rowNode(e Expr, m uint8) *laneNode {
	if m&readsRow == 0 {
		return &laneNode{shape: uniform, first: lc.scalar(e)}
	}
	buf, lb := make([]uint32, lc.lb.tile), lc.lb
	out := func() []uint32 { return buf[:lb.rows] }
	nd := &laneNode{shape: rowwise}
	if e.Type() == pattern.I32 {
		if stride, ok := LaneStride(e, lc.row); ok {
			first := lc.scalar(e)
			d := uint32(stride) * uint32(lc.rowStep)
			if d == 0 {
				return &laneNode{shape: uniform, first: first}
			}
			nd.rows = func() []uint32 {
				o, w := out(), first()
				for r := range o {
					o[r] = w
					w += d
				}
				return o
			}
			return nd
		}
	}
	if rd, ok := e.(*SRAMRd); ok && m&readsLane == 0 {
		mem, addrs := lc.ec.pc.sram(rd.Mem), lc.perRow(lc.node(rd.Addr))
		nd.rows = func() []uint32 {
			o := out()
			for r, a := range addrs()[:len(o)] {
				if int32(a) < 0 || int(int32(a)) >= len(mem) {
					panic(laneFault{})
				}
				o[r] = mem[a]
			}
			return o
		}
		return nd
	}
	f := lc.scalar(e)
	nd.rows = func() []uint32 {
		o := out()
		lb.each(f, o)
		return o
	}
	return nd
}

// load reads an SRAM in every lane. A strided or row-constant address is
// range-checked at the two ends of each row, and where its rows are
// consecutive the load is the memory itself; any other address is checked
// lane by lane.
func (lc *laneCompiler) load(n *SRAMRd, out func() []uint32) func() []uint32 {
	mem, a, lb := lc.ec.pc.sram(n.Mem), lc.node(n.Addr), lc.lb
	if a.shape == varying {
		addrs := a.vec
		return func() []uint32 {
			o := out()
			for k, w := range addrs()[:len(o)] {
				if int32(w) < 0 || int(int32(w)) >= len(mem) {
					panic(laneFault{})
				}
				o[k] = mem[w]
			}
			return o
		}
	}
	firsts, d := lc.perRow(a), int32(a.delta)
	return func() []uint32 {
		fs, cols := firsts(), lb.cols
		if d == 1 && consecutive(fs, cols) {
			if i, n := int32(fs[0]), len(fs)*cols; spans(i, 1, n, len(mem)) {
				return mem[i : int(i)+n]
			}
			panic(laneFault{})
		}
		o := out()
		for r, f := range fs {
			i := int32(f)
			if !spans(i, d, cols, len(mem)) {
				panic(laneFault{})
			}
			row := o[r*cols : (r+1)*cols]
			if d == 1 {
				copy(row, mem[i:])
				continue
			}
			for k := range row {
				row[k] = mem[i]
				i += d
			}
		}
		return o
	}
}

// consecutive reports whether each row starts cols words after the last.
func consecutive(firsts []uint32, cols int) bool {
	for r := 1; r < len(firsts); r++ {
		if firsts[r] != firsts[r-1]+uint32(cols) {
			return false
		}
	}
	return true
}

// binary applies a binary op in every lane. f32 arithmetic, i32 and f32
// comparisons and bool And and Or run as typed loops, with no call per
// lane, and take an operand that holds one word along each row as that
// word.
func (lc *laneCompiler) binary(n *Bin, out func() []uint32) func() []uint32 {
	t := n.X.Type()
	op, _ := binary(n.Op, t)
	x, y := lc.node(n.X), lc.node(n.Y)
	if vv, vs, sv := kernels(n.Op, t, op); vv != nil {
		return lc.byRow(x, y, out, vv, vs, sv)
	}
	xs, ys := lc.vector(x), lc.vector(y)
	return func() []uint32 {
		o := out()
		a, b := xs()[:len(o)], ys()[:len(o)]
		for k := range o {
			o[k] = op(a[k], b[k])
		}
		return o
	}
}

// The kernels apply one binary op to a row or a tile: to two vectors (vv),
// to a vector and a word (vs), or to a word and a vector (sv).
type (
	vvKernel func(o, a, b []uint32)
	vsKernel func(o, a []uint32, b uint32)
	svKernel func(o []uint32, a uint32, b []uint32)
)

// byRow runs a typed kernel over the tile, row by row where an operand
// holds one word along each row.
func (lc *laneCompiler) byRow(x, y *laneNode, out func() []uint32, vv vvKernel, vs vsKernel, sv svKernel) func() []uint32 {
	lb := lc.lb
	switch {
	case x.rowConst():
		xr, ys := lc.perRow(x), lc.vector(y)
		return func() []uint32 {
			o, b, cols := out(), ys(), lb.cols
			for r, w := range xr() {
				sv(o[r*cols:(r+1)*cols], w, b[r*cols:(r+1)*cols])
			}
			return o
		}
	case y.rowConst():
		xs, yr := lc.vector(x), lc.perRow(y)
		return func() []uint32 {
			o, a, cols := out(), xs(), lb.cols
			for r, w := range yr() {
				vs(o[r*cols:(r+1)*cols], a[r*cols:(r+1)*cols], w)
			}
			return o
		}
	}
	xs, ys := lc.vector(x), lc.vector(y)
	return func() []uint32 {
		o := out()
		vv(o, xs(), ys())
		return o
	}
}

// kernels returns the typed loops for op on words of type t, f being the
// scalar op; nil for ops that have none.
func kernels(op pattern.Op, t pattern.Type, f func(a, b uint32) uint32) (vvKernel, vsKernel, svKernel) {
	switch {
	case t == pattern.F32 && (op == pattern.Add || op == pattern.Sub || op == pattern.Mul):
		return f32Lanes(op, f)
	case t != pattern.Bool && (op == pattern.Lt || op == pattern.Le || op == pattern.Gt ||
		op == pattern.Ge || op == pattern.Eq || op == pattern.Ne):
		return cmpLanes(op, t)
	case t == pattern.Bool && (op == pattern.And || op == pattern.Or):
		return boolLanes(op)
	}
	return nil, nil, nil
}

// f32Lanes is the loops for f32 add, subtract and multiply.
//
// When both operands are NaN, which payload the result carries is up to
// the machine code the Go compiler emits, and that differs from loop to
// loop and between builds. So lanes that may meet two NaNs are recomputed
// by f, the scalar path's own op; any other result is exact in either
// operand order.
func f32Lanes(op pattern.Op, f func(a, b uint32) uint32) (vvKernel, vsKernel, svKernel) {
	var vv func(o, a, b []uint32)
	var vs func(o, a []uint32, b float32)
	var sv func(o []uint32, a float32, b []uint32)
	switch op {
	case pattern.Add:
		vv = func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = fw(fv(a[k]) + fv(b[k]))
			}
		}
		vs = func(o, a []uint32, b float32) {
			for k, x := range a[:len(o)] {
				o[k] = fw(fv(x) + b)
			}
		}
		sv = func(o []uint32, a float32, b []uint32) {
			for k, y := range b[:len(o)] {
				o[k] = fw(a + fv(y))
			}
		}
	case pattern.Sub:
		vv = func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = fw(fv(a[k]) - fv(b[k]))
			}
		}
		vs = func(o, a []uint32, b float32) {
			for k, x := range a[:len(o)] {
				o[k] = fw(fv(x) - b)
			}
		}
		sv = func(o []uint32, a float32, b []uint32) {
			for k, y := range b[:len(o)] {
				o[k] = fw(a - fv(y))
			}
		}
	default: // Mul
		vv = func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = fw(fv(a[k]) * fv(b[k]))
			}
		}
		vs = func(o, a []uint32, b float32) {
			for k, x := range a[:len(o)] {
				o[k] = fw(fv(x) * b)
			}
		}
		sv = func(o []uint32, a float32, b []uint32) {
			for k, y := range b[:len(o)] {
				o[k] = fw(a * fv(y))
			}
		}
	}
	return func(o, a, b []uint32) {
			vv(o, a, b)
			for k, w := range o {
				if isNaN(w) {
					o[k] = f(a[k], b[k])
				}
			}
		}, func(o, a []uint32, b uint32) {
			if vs(o, a, fv(b)); isNaN(b) {
				for k := range o {
					o[k] = f(a[k], b)
				}
			}
		}, func(o []uint32, a uint32, b []uint32) {
			if sv(o, fv(a), b); isNaN(a) {
				for k := range o {
					o[k] = f(a, b[k])
				}
			}
		}
}

// cmpLanes is the loops for i32 and f32 comparisons. On two vectors, Gt
// and Ge swap them for Lt and Le; a word on the left turns the comparison
// around. Both are exact, NaNs included.
func cmpLanes(op pattern.Op, t pattern.Type) (vvKernel, vsKernel, svKernel) {
	var vv vvKernel
	if op == pattern.Gt || op == pattern.Ge {
		lt := cmpVV(turned(op), t)
		vv = func(o, a, b []uint32) { lt(o, b, a) }
	} else {
		vv = cmpVV(op, t)
	}
	ts := cmpVS(turned(op), t)
	return vv, cmpVS(op, t), func(o []uint32, a uint32, b []uint32) { ts(o, b, a) }
}

// turned is the comparison that holds for (b, a) where op holds for (a, b).
func turned(op pattern.Op) pattern.Op {
	switch op {
	case pattern.Lt:
		return pattern.Gt
	case pattern.Le:
		return pattern.Ge
	case pattern.Gt:
		return pattern.Lt
	case pattern.Ge:
		return pattern.Le
	}
	return op
}

// cmpVV compares two vectors by Lt, Le, Eq or Ne. Ne is Eq negated, which
// NaNs respect (a NaN equals nothing and differs from everything).
func cmpVV(op pattern.Op, t pattern.Type) vvKernel {
	neg := uint32(0)
	if op == pattern.Ne {
		op, neg = pattern.Eq, 1
	}
	switch {
	case t == pattern.I32 && op == pattern.Lt:
		return func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = boolWord(int32(a[k]) < int32(b[k]))
			}
		}
	case t == pattern.I32 && op == pattern.Le:
		return func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = boolWord(int32(a[k]) <= int32(b[k]))
			}
		}
	case t == pattern.I32:
		return func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = boolWord(a[k] == b[k]) ^ neg
			}
		}
	case op == pattern.Lt:
		return func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = boolWord(fv(a[k]) < fv(b[k]))
			}
		}
	case op == pattern.Le:
		return func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = boolWord(fv(a[k]) <= fv(b[k]))
			}
		}
	}
	return func(o, a, b []uint32) {
		a, b = a[:len(o)], b[:len(o)]
		for k := range o {
			o[k] = boolWord(fv(a[k]) == fv(b[k])) ^ neg
		}
	}
}

// cmpVS compares a vector with a word. Ne is Eq negated, and for i32 so are
// Gt and Ge (Le and Lt negated).
func cmpVS(op pattern.Op, t pattern.Type) vsKernel {
	neg := uint32(0)
	switch {
	case op == pattern.Ne:
		op, neg = pattern.Eq, 1
	case t == pattern.I32 && op == pattern.Gt:
		op, neg = pattern.Le, 1
	case t == pattern.I32 && op == pattern.Ge:
		op, neg = pattern.Lt, 1
	}
	switch {
	case t == pattern.I32 && op == pattern.Lt:
		return func(o, a []uint32, b uint32) {
			y := int32(b)
			for k, x := range a[:len(o)] {
				o[k] = boolWord(int32(x) < y) ^ neg
			}
		}
	case t == pattern.I32 && op == pattern.Le:
		return func(o, a []uint32, b uint32) {
			y := int32(b)
			for k, x := range a[:len(o)] {
				o[k] = boolWord(int32(x) <= y) ^ neg
			}
		}
	case t == pattern.I32:
		return func(o, a []uint32, b uint32) {
			for k, x := range a[:len(o)] {
				o[k] = boolWord(x == b) ^ neg
			}
		}
	case op == pattern.Lt:
		return func(o, a []uint32, b uint32) {
			y := fv(b)
			for k, x := range a[:len(o)] {
				o[k] = boolWord(fv(x) < y)
			}
		}
	case op == pattern.Le:
		return func(o, a []uint32, b uint32) {
			y := fv(b)
			for k, x := range a[:len(o)] {
				o[k] = boolWord(fv(x) <= y)
			}
		}
	case op == pattern.Gt:
		return func(o, a []uint32, b uint32) {
			y := fv(b)
			for k, x := range a[:len(o)] {
				o[k] = boolWord(fv(x) > y)
			}
		}
	case op == pattern.Ge:
		return func(o, a []uint32, b uint32) {
			y := fv(b)
			for k, x := range a[:len(o)] {
				o[k] = boolWord(fv(x) >= y)
			}
		}
	}
	return func(o, a []uint32, b uint32) {
		y := fv(b)
		for k, x := range a[:len(o)] {
			o[k] = boolWord(fv(x) == y) ^ neg
		}
	}
}

// boolLanes is the loops for bool And and Or, on words that are 0 or 1.
func boolLanes(op pattern.Op) (vvKernel, vsKernel, svKernel) {
	var vv vvKernel
	var vs vsKernel
	if op == pattern.And {
		vv = func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = a[k] & b[k]
			}
		}
		vs = func(o, a []uint32, b uint32) {
			for k, x := range a[:len(o)] {
				o[k] = x & b
			}
		}
	} else {
		vv = func(o, a, b []uint32) {
			a, b = a[:len(o)], b[:len(o)]
			for k := range o {
				o[k] = a[k] | b[k]
			}
		}
		vs = func(o, a []uint32, b uint32) {
			for k, x := range a[:len(o)] {
				o[k] = x | b
			}
		}
	}
	return vv, vs, func(o []uint32, a uint32, b []uint32) { vs(o, b, a) }
}

// isNaN reports whether the word holds an f32 NaN.
func isNaN(w uint32) bool { return w&0x7fffffff > 0x7f800000 }
