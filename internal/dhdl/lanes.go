package dhdl

import "plasticine/internal/pattern"

// This file runs eligible Compute bodies a block of lanes at a time, the
// way a PCU runs its innermost counter across its SIMD lanes (Section
// 3.1). A block is up to laneBlock consecutive iterations of the innermost
// counter. Every expression of the body is evaluated once per block, by
// the shape LaneStride gives it:
//
//   - a lane-invariant subtree yields one word, from its scalar closure;
//   - a lane-affine i32 subtree yields its value in the first lane and a
//     constant difference between neighbouring lanes;
//   - anything else fills a vector with one word per lane.
//
// An expression pointer shared within the body is evaluated once per
// block. Evaluation has no side effects, so a block that faults (an
// address out of range, an i32 division by zero, even in a Mux arm or a
// lane whose condition fails) is abandoned before anything commits and
// reruns through the scalar closures, which report exactly the error the
// scalar path would. Otherwise the block commits lane by lane, assigns in
// body order, so every memory sees the stores and reductions of the
// scalar loop in the same order.

// laneBlock is the most iterations one lane block evaluates together.
const laneBlock = 64

// laneEligible reports whether a compute body can run a block of lanes at
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

// blockLanes is how many iterations the block starting at counter value i
// runs: up to laneBlock, ending where the scalar loop would.
func blockLanes(i, max, step int32) int {
	return int(min((int64(max)-int64(i)+int64(step)-1)/int64(step), laneBlock))
}

// laneFault abandons a lane block; the scalar rerun finds the real error.
type laneFault struct{}

// laneShape says how an expression varies across a block's lanes.
type laneShape uint8

const (
	uniform laneShape = iota // one word for every lane
	strided                  // first() + delta·k in lane k
	varying                  // one word per lane, from vec
)

// laneNode is one expression compiled for whole lane blocks.
type laneNode struct {
	shape laneShape
	first word            // uniform, strided: the word in the block's first lane
	delta uint32          // strided: the change from one lane to the next
	vec   func() []uint32 // varying: the block's words, one per lane
}

// laneBody is an eligible compute body compiled for lane blocks.
type laneBody struct {
	n         int    // lanes in the current block
	gen       uint64 // counts blocks, so shared nodes evaluate once per block
	lane      *int32 // the innermost counter
	assigns   []*laneAssign
	laneMajor bool // two assigns write one memory: commit lane by lane
}

// eval evaluates every assign of the block of n lanes starting at counter
// value i. It reports false, having changed no memory, if the block
// faulted.
func (lb *laneBody) eval(i int32, n int) (ok bool) {
	defer func() {
		if !ok {
			switch r := recover(); r.(type) {
			case laneFault, interpError, *pattern.EvalError:
			default:
				panic(r)
			}
		}
	}()
	lb.n = n
	lb.gen++
	*lb.lane = i
	for _, la := range lb.assigns {
		la.eval(lb.laneMajor)
	}
	return true
}

// commit stores the evaluated block. Assigns to distinct memories commit
// one after another, each across all lanes; that is the lane-major order
// as far as any memory can tell.
func (lb *laneBody) commit() {
	if !lb.laneMajor {
		for _, la := range lb.assigns {
			la.commitBlock()
		}
		return
	}
	for k := 0; k < lb.n; k++ {
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
	mem              []uint32        // SRAM destination
	reg              *uint32         // WriteReg target, or ReduceReg accumulator
	combine          func(a, b uint32) uint32
	fsum             bool

	// The evaluated block.
	skip    bool     // a lane-invariant condition failed
	c, v    []uint32 // per-lane conditions (nil: all hold) and values
	av      []uint32 // per-lane addresses; nil when base and d give them
	base, d int32
}

func (la *laneAssign) eval(laneMajor bool) {
	la.skip, la.c, la.av = false, nil, nil
	if la.cond != nil {
		if la.cond.shape == uniform {
			if la.skip = la.cond.first() == 0; la.skip {
				return
			}
		} else {
			la.c = la.conds()
		}
	}
	la.v = la.vals()
	if la.mem == nil {
		return
	}
	if la.addr.shape != varying && la.c == nil && !laneMajor {
		la.base, la.d = int32(la.addr.first()), int32(la.addr.delta)
		if !spans(la.base, la.d, len(la.v), len(la.mem)) {
			panic(laneFault{})
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

func (la *laneAssign) commitBlock() {
	switch {
	case la.skip:
	case la.mem != nil && la.av == nil:
		mem, a, d := la.mem, la.base, la.d
		switch {
		case la.kind == WriteSRAM && d == 1:
			copy(mem[a:], la.v)
		case la.kind == WriteSRAM:
			for _, v := range la.v {
				mem[a] = v
				a += d
			}
		default:
			vs, k := la.v, 0
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
	case la.kind == ReduceReg && la.c == nil && la.fsum:
		vs, acc, k := la.v, fv(*la.reg), 0
		for ; k < len(vs); k++ {
			sum := acc + fv(vs[k])
			if sum != sum {
				break // NaN: the op decides its payload (see f32Lanes)
			}
			acc = sum
		}
		w := fw(acc)
		for ; k < len(vs); k++ {
			w = la.combine(w, vs[k])
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

// laneCompiler compiles the expressions of one lane body.
type laneCompiler struct {
	ec    *exprCompiler
	lb    *laneBody
	level int   // the innermost counter's level
	step  int32 // and its step
	nodes map[Expr]*laneNode
	uses  map[Expr]int // references to each expression within the body
	reads map[Expr]bool
}

// laneBody compiles an eligible compute body for lane blocks. accs holds
// the scalar path's ReduceReg accumulators, which both paths share.
func (c *progCompiler) laneBody(ctl *Controller, ec *exprCompiler, accs []*uint32) *laneBody {
	inner := len(ctl.Chain) - 1
	lc := &laneCompiler{ec: ec, level: ctl.Depth + inner, step: int32(ctl.Chain[inner].Step),
		nodes: map[Expr]*laneNode{}, uses: map[Expr]int{}, reads: map[Expr]bool{}}
	lb := &laneBody{lane: &c.env[lc.level]}
	lc.lb = lb
	var count func(e Expr)
	count = func(e Expr) {
		if lc.uses[e]++; lc.uses[e] == 1 {
			for _, ch := range e.children() {
				count(ch)
			}
		}
	}
	for _, a := range ctl.Body {
		for _, e := range []Expr{a.Cond, a.Val, a.Addr} {
			if e != nil {
				count(e)
			}
		}
	}
	dests := map[any]bool{}
	for i, a := range ctl.Body {
		la := &laneAssign{kind: a.Kind, val: lc.node(a.Val)}
		la.vals = lc.vector(la.val)
		if a.Cond != nil {
			la.cond = lc.node(a.Cond)
			la.conds = lc.vector(la.cond)
		}
		elem := a.Val.Type()
		switch a.Kind {
		case WriteSRAM, ReduceSRAM:
			la.mem = c.sram(a.SRAM)
			la.addr = lc.node(a.Addr)
			la.ads = lc.vector(la.addr)
			lb.laneMajor = lb.laneMajor || dests[a.SRAM]
			dests[a.SRAM] = true
		case WriteReg:
			la.reg = c.reg(a.Reg)
			lb.laneMajor = lb.laneMajor || dests[a.Reg]
			dests[a.Reg] = true
		case ReduceReg:
			la.reg = accs[i]
		}
		if a.Kind == ReduceSRAM || a.Kind == ReduceReg {
			la.combine, _ = binary(a.Combine, elem)
			la.fsum = a.Combine == pattern.Add && elem == pattern.F32
		}
		lb.assigns = append(lb.assigns, la)
	}
	return lb
}

// readsLane reports whether e reads the innermost counter.
func (lc *laneCompiler) readsLane(e Expr) bool {
	r, ok := lc.reads[e]
	if !ok {
		if c, isCtr := e.(*Ctr); isCtr {
			r = c.Level == lc.level
		}
		for _, ch := range e.children() {
			r = lc.readsLane(ch) || r
		}
		lc.reads[e] = r
	}
	return r
}

// node compiles e once per pointer, memoising shared nodes per block.
func (lc *laneCompiler) node(e Expr) *laneNode {
	if nd, ok := lc.nodes[e]; ok {
		return nd
	}
	nd := lc.build(e)
	if lc.uses[e] > 1 && len(e.children()) > 0 {
		lb, seen := lc.lb, uint64(0)
		switch f, g := nd.first, nd.vec; nd.shape {
		case uniform, strided:
			var w uint32
			nd.first = func() uint32 {
				if seen != lb.gen {
					w, seen = f(), lb.gen
				}
				return w
			}
		case varying:
			var ws []uint32
			nd.vec = func() []uint32 {
				if seen != lb.gen {
					ws, seen = g(), lb.gen
				}
				return ws
			}
		}
	}
	lc.nodes[e] = nd
	return nd
}

// scalar is e's scalar closure: its affine address register if it has
// one, which holds its value in the block's first lane.
func (lc *laneCompiler) scalar(e Expr) word {
	if p := lc.ec.aff[e]; p != nil {
		return func() uint32 { return uint32(*p) }
	}
	w, _ := lc.ec.expr(e)
	return w
}

// vector returns the block's words of nd, one per lane.
func (lc *laneCompiler) vector(nd *laneNode) func() []uint32 {
	if nd.shape == varying {
		return nd.vec
	}
	buf, lb, first, d := make([]uint32, laneBlock), lc.lb, nd.first, nd.delta
	return func() []uint32 {
		out, w := buf[:lb.n], first()
		for k := range out {
			out[k] = w
			w += d
		}
		return out
	}
}

func (lc *laneCompiler) build(e Expr) *laneNode {
	if !lc.readsLane(e) {
		return &laneNode{shape: uniform, first: lc.scalar(e)}
	}
	if e.Type() == pattern.I32 {
		if stride, ok := LaneStride(e, lc.level); ok {
			// Exact in wrapping 32-bit arithmetic, as the i32 ops are.
			nd := &laneNode{shape: strided, first: lc.scalar(e), delta: uint32(stride) * uint32(lc.step)}
			if nd.delta == 0 {
				nd.shape = uniform
			}
			return nd
		}
	}
	buf, lb := make([]uint32, laneBlock), lc.lb
	out := func() []uint32 { return buf[:lb.n] }
	nd := &laneNode{shape: varying}
	switch n := e.(type) {
	case *SRAMRd:
		nd.vec = lc.load(n, out)
	case *ToF32:
		x := lc.vector(lc.node(n.X))
		nd.vec = func() []uint32 {
			o := out()
			for k, w := range x() {
				o[k] = fw(float32(int32(w)))
			}
			return o
		}
	case *ToI32:
		x := lc.vector(lc.node(n.X))
		nd.vec = func() []uint32 {
			o := out()
			for k, w := range x() {
				o[k] = uint32(int32(fv(w)))
			}
			return o
		}
	case *Mux:
		c, t, f := lc.vector(lc.node(n.Cond)), lc.vector(lc.node(n.T)), lc.vector(lc.node(n.F))
		nd.vec = func() []uint32 {
			o, cs, ts, fs := out(), c(), t(), f()
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
			for k, w := range x() {
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

// load reads an SRAM in every lane. A strided address is range-checked at
// its two ends; any other is checked lane by lane.
func (lc *laneCompiler) load(n *SRAMRd, out func() []uint32) func() []uint32 {
	mem, a := lc.ec.pc.sram(n.Mem), lc.node(n.Addr)
	if a.shape == varying {
		addrs := a.vec
		return func() []uint32 {
			o := out()
			for k, w := range addrs() {
				if int32(w) < 0 || int(int32(w)) >= len(mem) {
					panic(laneFault{})
				}
				o[k] = mem[w]
			}
			return o
		}
	}
	first, d := a.first, int32(a.delta)
	return func() []uint32 {
		o, i := out(), int32(first())
		if !spans(i, d, len(o), len(mem)) {
			panic(laneFault{})
		}
		if d == 1 {
			copy(o, mem[i:])
			return o
		}
		for k := range o {
			o[k] = mem[i]
			i += d
		}
		return o
	}
}

// binary applies a binary op in every lane. f32 arithmetic runs without a
// call per lane, and keeps a lane-invariant operand as one word.
func (lc *laneCompiler) binary(n *Bin, out func() []uint32) func() []uint32 {
	t := n.X.Type()
	op, _ := binary(n.Op, t)
	x, y := lc.node(n.X), lc.node(n.Y)
	if t == pattern.F32 {
		if f := f32Lanes(n, op, lc, x, y, out); f != nil {
			return f
		}
	}
	xs, ys := lc.vector(x), lc.vector(y)
	return func() []uint32 {
		o, a, b := out(), xs(), ys()
		for k := range o {
			o[k] = op(a[k], b[k])
		}
		return o
	}
}

// f32Lanes is binary's loop for f32 add, subtract and multiply; nil for
// any other op.
//
// When both operands are NaN, which payload the result carries is up to
// the machine code the Go compiler emits, and that differs from loop to
// loop and between builds. So lanes that may meet two NaNs are recomputed
// by f, the scalar path's own op; any other result is exact in either
// operand order.
func f32Lanes(n *Bin, f func(a, b uint32) uint32, lc *laneCompiler, x, y *laneNode, out func() []uint32) func() []uint32 {
	var vv func(o, a, b []uint32)
	var vs func(o, a []uint32, b float32)
	var sv func(o []uint32, a float32, b []uint32)
	switch n.Op {
	case pattern.Add:
		vv = func(o, a, b []uint32) {
			for k := range o {
				o[k] = fw(fv(a[k]) + fv(b[k]))
			}
		}
		vs = func(o, a []uint32, b float32) {
			for k := range o {
				o[k] = fw(fv(a[k]) + b)
			}
		}
		sv = func(o []uint32, a float32, b []uint32) {
			for k := range o {
				o[k] = fw(a + fv(b[k]))
			}
		}
	case pattern.Sub:
		vv = func(o, a, b []uint32) {
			for k := range o {
				o[k] = fw(fv(a[k]) - fv(b[k]))
			}
		}
		vs = func(o, a []uint32, b float32) {
			for k := range o {
				o[k] = fw(fv(a[k]) - b)
			}
		}
		sv = func(o []uint32, a float32, b []uint32) {
			for k := range o {
				o[k] = fw(a - fv(b[k]))
			}
		}
	case pattern.Mul:
		vv = func(o, a, b []uint32) {
			for k := range o {
				o[k] = fw(fv(a[k]) * fv(b[k]))
			}
		}
		vs = func(o, a []uint32, b float32) {
			for k := range o {
				o[k] = fw(fv(a[k]) * b)
			}
		}
		sv = func(o []uint32, a float32, b []uint32) {
			for k := range o {
				o[k] = fw(a * fv(b[k]))
			}
		}
	default:
		return nil
	}
	switch {
	case x.shape == uniform:
		xs, ys := x.first, lc.vector(y)
		return func() []uint32 {
			o, a, b := out(), xs(), ys()
			if sv(o, fv(a), b); isNaN(a) {
				for k := range o {
					o[k] = f(a, b[k])
				}
			}
			return o
		}
	case y.shape == uniform:
		xs, ys := lc.vector(x), y.first
		return func() []uint32 {
			o, a, b := out(), xs(), ys()
			if vs(o, a, fv(b)); isNaN(b) {
				for k := range o {
					o[k] = f(a[k], b)
				}
			}
			return o
		}
	}
	xs, ys := lc.vector(x), lc.vector(y)
	return func() []uint32 {
		o, a, b := out(), xs(), ys()
		vv(o, a, b)
		for k, w := range o {
			if isNaN(w) {
				o[k] = f(a[k], b[k])
			}
		}
		return o
	}
}

// isNaN reports whether the word holds an f32 NaN.
func isNaN(w uint32) bool { return w&0x7fffffff > 0x7f800000 }
