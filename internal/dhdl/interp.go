package dhdl

import (
	"context"
	"fmt"
	"math"

	"plasticine/internal/pattern"
)

// State holds the live contents of all on-chip memories during and after an
// interpreter run. DRAM contents live in the bound collections.
//
// Memories hold raw 32-bit words, as the hardware's do; the element type
// of each SRAM, register or FIFO says how to read them. Every declared
// memory has a dense slot in the table of its kind. The compiled program
// captures each slot's storage directly, so no map is consulted while it
// runs; the slot map only serves the accessors below.
type State struct {
	srams [][]uint32
	regs  []uint32
	fifos []wordQueue
	slot  map[any]int // *SRAM, *Reg or *FIFOMem -> index into its table
}

func newState(p *Program) *State {
	st := &State{
		srams: make([][]uint32, 0, len(p.SRAMs)),
		regs:  make([]uint32, 0, len(p.Regs)),
		fifos: make([]wordQueue, 0, len(p.FIFOs)),
		slot:  make(map[any]int, len(p.SRAMs)+len(p.Regs)+len(p.FIFOs)),
	}
	for _, s := range p.SRAMs {
		if _, dup := st.slot[s]; !dup {
			st.slot[s] = len(st.srams)
			st.srams = append(st.srams, make([]uint32, s.Size))
		}
	}
	for _, r := range p.Regs {
		if _, dup := st.slot[r]; !dup {
			st.slot[r] = len(st.regs)
			st.regs = append(st.regs, toWord(r.Init))
		}
	}
	for _, f := range p.FIFOs {
		if _, dup := st.slot[f]; !dup {
			st.slot[f] = len(st.fifos)
			st.fifos = append(st.fifos, wordQueue{})
		}
	}
	return st
}

// SRAMData returns the current contents of an SRAM.
func (s *State) SRAMData(m *SRAM) []pattern.Value {
	i, ok := s.slot[m]
	if !ok {
		return nil
	}
	return fromWords(m.Elem, s.srams[i])
}

// RegValue returns the current value of a register.
func (s *State) RegValue(r *Reg) pattern.Value {
	i, ok := s.slot[r]
	if !ok {
		return pattern.Value{}
	}
	return fromWord(r.Elem, s.regs[i])
}

// FIFOLen returns the occupancy of a FIFO.
func (s *State) FIFOLen(f *FIFOMem) int {
	i, ok := s.slot[f]
	if !ok {
		return 0
	}
	return s.fifos[i].len()
}

// FIFOData returns the current contents of a FIFO (front first).
func (s *State) FIFOData(f *FIFOMem) []pattern.Value {
	i, ok := s.slot[f]
	if !ok {
		return nil
	}
	q := &s.fifos[i]
	return fromWords(f.Elem, q.buf[q.head:])
}

// toWord is the 32-bit word a value occupies in memory.
func toWord(v pattern.Value) uint32 {
	switch v.T {
	case pattern.F32:
		return math.Float32bits(v.F)
	case pattern.I32:
		return uint32(v.I)
	}
	return boolWord(v.B)
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// fromWord reads a memory word as a value of type t.
func fromWord(t pattern.Type, w uint32) pattern.Value {
	switch t {
	case pattern.F32:
		return pattern.VF(math.Float32frombits(w))
	case pattern.I32:
		return pattern.VI(int32(w))
	}
	return pattern.VB(w != 0)
}

func fromWords(t pattern.Type, ws []uint32) []pattern.Value {
	out := make([]pattern.Value, len(ws))
	for i, w := range ws {
		out[i] = fromWord(t, w)
	}
	return out
}

// wordQueue is a FIFO's storage: pops advance head, and the buffer rewinds
// once drained so a stream that is pushed and popped in turn stays small.
type wordQueue struct {
	buf  []uint32
	head int
}

func (q *wordQueue) len() int      { return len(q.buf) - q.head }
func (q *wordQueue) push(w uint32) { q.buf = append(q.buf, w) }

func (q *wordQueue) pop() (uint32, bool) {
	if q.head == len(q.buf) {
		return 0, false
	}
	w := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return w, true
}

type interpError struct{ err error }

func ifail(format string, args ...any) {
	panic(interpError{fmt.Errorf("dhdl interp: "+format, args...)})
}

// ExecEvent describes one completed leaf-controller execution during a
// traced run. The hardware simulator replays these events to build its
// timed activity graph.
type ExecEvent struct {
	Ctrl *Controller
	Path []*Controller // ancestors, root first, ending at Ctrl (shared: do not modify)
	Env  []int32       // counter values in scope (copy)

	// Iters is the number of body iterations a Compute executed.
	Iters int64

	// Transfer details: the DRAM buffer, dense word offset/length, and for
	// sparse transfers the element indices in access order.
	Buf         *DRAMBuf
	DenseOff    int
	DenseLen    int
	SparseAddrs []int32
	Write       bool
}

// ExecHook observes leaf executions in program order. The event is reused
// once the hook returns (its Env and SparseAddrs are not): a hook that
// keeps it keeps a copy, *ev.
type ExecHook func(ev *ExecEvent)

// Run executes the program sequentially, defining the IR's functional
// semantics. All DRAM buffers must be bound. The returned State exposes
// final on-chip memory contents; DRAM results are visible in the bound
// collections.
func Run(p *Program) (*State, error) { return Trace(p, nil) }

// Trace is Run with an execution hook invoked after every leaf execution.
func Trace(p *Program, hook ExecHook) (*State, error) {
	return TraceContext(context.Background(), p, hook)
}

// TraceContext is Trace under a context. It polls ctx before every leaf
// execution; a canceled run stops there and fails with an error wrapping
// ctx.Err().
//
// The program is compiled before it runs: every memory gets a slot,
// every expression becomes a closure specialised to its static type, and
// every affine SRAM address becomes a register that steps by a constant
// stride as the counters advance. A compute body whose iterations are
// independent runs a tile of lanes at a time, with the same results,
// errors and events. A program that is not well typed
// (an f32 value stored into an i32 SRAM, a comparison used as a number,
// an i32 counter limit read from an f32 register) is rejected with an
// error before anything executes.
func TraceContext(ctx context.Context, p *Program, hook ExecHook) (*State, error) {
	return trace(ctx, p, hook, nil)
}

// trace is TraceContext with an observer of lane tiles (see progCompiler).
func trace(ctx context.Context, p *Program, hook ExecHook, onTile func(*Controller, laneTile)) (st *State, err error) {
	if ferr := p.Finalize(); ferr != nil {
		return nil, ferr
	}
	for _, d := range p.DRAMs {
		if d.Data == nil {
			return nil, fmt.Errorf("dhdl interp: DRAM buffer %q not bound", d.Name)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			if ie, ok := r.(interpError); ok {
				st, err = nil, ie.err
				return
			}
			// Integer division by zero is reported by the pattern
			// package's own op semantics, as a typed panic; surface it
			// as an interpreter error (wrapping pattern.ErrEval) too.
			if pe, ok := r.(*pattern.EvalError); ok {
				st, err = nil, fmt.Errorf("dhdl interp: %w", pe)
				return
			}
			panic(r)
		}
	}()
	st = newState(p)
	c := &progCompiler{st: st, hook: hook, env: make([]int32, maxLevels(p.Root)), ctx: ctx, onTile: onTile}
	c.ctrl(p.Root)()
	return st, nil
}

// maxLevels is the deepest counter level in scope anywhere under c.
func maxLevels(c *Controller) int {
	n := c.Depth + len(c.Chain)
	for _, ch := range c.Children {
		n = max(n, maxLevels(ch))
	}
	return n
}

// progCompiler turns the controller tree into nested closures over one
// State and one counter environment.
type progCompiler struct {
	st   *State
	hook ExecHook
	env  []int32 // counter values by level; levels below the running controller's scope are stale
	path []*Controller
	ctx  context.Context

	// onTile, when set, observes every lane tile a compute body evaluates.
	onTile func(*Controller, laneTile)
}

// laneTile describes one tile of lanes that a compute body evaluated (see
// lanes.go), for tests that measure what the lane path covered.
type laneTile struct {
	index   int  // in its loop: the row loop for a tile of rows, the innermost loop for a block
	rows    int  // rows of the next-outer counter; 1 for a block
	fused   int  // fused multiply-accumulates in the body
	faulted bool // it faulted and reran row by row, or lane by lane
}

func (c *progCompiler) sram(m *SRAM) []uint32 {
	i, ok := c.st.slot[m]
	if !ok {
		ifail("SRAM %q is not declared by the program", m.Name)
	}
	return c.st.srams[i]
}

func (c *progCompiler) reg(r *Reg) *uint32 {
	i, ok := c.st.slot[r]
	if !ok {
		ifail("register %q is not declared by the program", r.Name)
	}
	return &c.st.regs[i]
}

func (c *progCompiler) fifo(f *FIFOMem) *wordQueue {
	i, ok := c.st.slot[f]
	if !ok {
		ifail("FIFO %q is not declared by the program", f.Name)
	}
	return &c.st.fifos[i]
}

// ctrl compiles one controller into a closure that executes it once in the
// current counter environment.
func (c *progCompiler) ctrl(ctl *Controller) func() {
	c.path = append(c.path, ctl)
	defer func() { c.path = c.path[:len(c.path)-1] }()
	switch {
	case ctl.Kind.IsOuter():
		// The reference semantics of all four outer schedules are
		// identical: children execute in program order per iteration.
		// Pipelining/streaming change timing, not results.
		kids := make([]func(), len(ctl.Children))
		for i, ch := range ctl.Children {
			kids[i] = c.ctrl(ch)
		}
		return c.loops(ctl, func() {
			for _, k := range kids {
				k()
			}
		})
	case ctl.Kind == ComputeKind:
		return c.polled(c.compute(ctl))
	default:
		return c.loops(ctl, c.polled(c.transfer(ctl)))
	}
}

// polled makes a leaf execution check for cancellation first. A context
// that can never be canceled costs nothing.
func (c *progCompiler) polled(leaf func()) func() {
	done := c.ctx.Done()
	if done == nil {
		return leaf
	}
	return func() {
		select {
		case <-done:
			ifail("run abandoned: %w", c.ctx.Err())
		default:
		}
		leaf()
	}
}

// counterLoop is one compiled level of a counter chain.
type counterLoop struct {
	level     int
	min, step int32
	max       int32
	maxReg    *uint32 // dynamic limit, read when the loop starts; nil = static
}

func (c *progCompiler) counter(ctr Counter, level int) counterLoop {
	lp := counterLoop{level: level, min: int32(ctr.Min), step: int32(ctr.Step), max: int32(ctr.Max)}
	if ctr.MaxReg != nil {
		if ctr.MaxReg.Elem != pattern.I32 {
			ifail("dynamic counter limit register %q is not i32", ctr.MaxReg.Name)
		}
		lp.maxReg = c.reg(ctr.MaxReg)
	}
	return lp
}

func (lp *counterLoop) limit() int32 {
	if lp.maxReg != nil {
		return int32(*lp.maxReg)
	}
	return lp.max
}

// loops wraps body in ctl's counter chain, iterated in row-major order.
func (c *progCompiler) loops(ctl *Controller, body func()) func() {
	env := c.env
	run := body
	for j := len(ctl.Chain) - 1; j >= 0; j-- {
		lp, inner := c.counter(ctl.Chain[j], ctl.Depth+j), run
		run = func() {
			for i, max := lp.min, lp.limit(); i < max; i += lp.step {
				env[lp.level] = i
				inner()
			}
		}
	}
	return run
}

// emitter returns the function that reports one execution of the leaf at
// the top of the path, with the first n counter levels as its environment;
// nil when the run has no hook. Each leaf reports through one event it
// reuses, so an execution allocates only its Env.
func (c *progCompiler) emitter(n int) func(ev ExecEvent) {
	if c.hook == nil {
		return nil
	}
	hook, env := c.hook, c.env
	path := append([]*Controller(nil), c.path...)
	path = path[:len(path):len(path)] // an append by a hook must copy
	slot := new(ExecEvent)
	return func(ev ExecEvent) {
		*slot = ev
		slot.Path = path
		slot.Env = append([]int32(nil), env[:n]...)
		hook(slot)
	}
}

// dramWords is a bound DRAM buffer seen as 32-bit words.
type dramWords struct {
	d   *DRAMBuf
	n   int
	f32 []float32
	i32 []int32
}

func dramOf(d *DRAMBuf) dramWords {
	if d.Elem != pattern.F32 && d.Elem != pattern.I32 {
		ifail("DRAM %q holds %v; only f32 and i32 buffers are supported", d.Name, d.Elem)
	}
	return dramWords{d: d, n: d.Len(), f32: d.Data.F32Data(), i32: d.Data.I32Data()}
}

func (m dramWords) read(i int) uint32 {
	if i < 0 || i >= m.n {
		ifail("DRAM %q read at %d out of range [0,%d)", m.d.Name, i, m.n)
	}
	if m.d.Elem == pattern.F32 {
		return math.Float32bits(m.f32[i])
	}
	return uint32(m.i32[i])
}

func (m dramWords) write(i int, w uint32) {
	if i < 0 || i >= m.n {
		ifail("DRAM %q write at %d out of range [0,%d)", m.d.Name, i, m.n)
	}
	if m.d.Elem == pattern.F32 {
		m.f32[i] = math.Float32frombits(w)
	} else {
		m.i32[i] = int32(w)
	}
}

// load copies len(dst) words starting at word o into dst; false, with
// nothing copied, when the range leaves the buffer.
func (m dramWords) load(o int, dst []uint32) bool {
	if o < 0 || o+len(dst) > m.n {
		return false
	}
	if m.d.Elem == pattern.F32 {
		for i, f := range m.f32[o : o+len(dst)] {
			dst[i] = math.Float32bits(f)
		}
	} else {
		for i, x := range m.i32[o : o+len(dst)] {
			dst[i] = uint32(x)
		}
	}
	return true
}

// store copies src to the words starting at o; false, with nothing
// copied, when the range leaves the buffer.
func (m dramWords) store(o int, src []uint32) bool {
	if o < 0 || o+len(src) > m.n {
		return false
	}
	if m.d.Elem == pattern.F32 {
		dst := m.f32[o : o+len(src)]
		for i, w := range src {
			dst[i] = math.Float32frombits(w)
		}
	} else {
		dst := m.i32[o : o+len(src)]
		for i, w := range src {
			dst[i] = int32(w)
		}
	}
	return true
}

// sameType fails compilation when a transfer moves words between an
// on-chip memory and a DRAM buffer of different element types.
func sameType(ctl *Controller, mem string, elem pattern.Type) {
	if d := ctl.Xfer.DRAM; elem != d.Elem {
		ifail("%s %q: %v memory %q does not match %v DRAM %q", ctl.Kind, ctl.Name, elem, mem, d.Elem, d.Name)
	}
}

// transfer compiles the body of a Load/Store/Gather/Scatter leaf: one
// chain iteration's data movement plus its event.
func (c *progCompiler) transfer(ctl *Controller) func() {
	x := ctl.Xfer
	ec := &exprCompiler{pc: c, ctl: ctl}
	off, sramOff := constWord(0), constWord(0)
	if x.Off != nil {
		off = ec.typed(x.Off, pattern.I32, "DRAM offset")
	}
	if x.SRAMOff != nil {
		sramOff = ec.typed(x.SRAMOff, pattern.I32, "SRAM offset")
	}
	var countReg *uint32
	if x.CountReg != nil {
		if x.CountReg.Elem != pattern.I32 {
			ifail("%s %q: count register %q is not i32", ctl.Kind, ctl.Name, x.CountReg.Name)
		}
		countReg = c.reg(x.CountReg)
	}
	// Every transfer evaluates both offsets and reads its count, in this
	// order, whether or not its kind uses them.
	operands := func() (o, so, n int) {
		o, so, n = int(int32(off())), int(int32(sramOff())), x.Count
		if countReg != nil {
			n = int(int32(*countReg))
		}
		return o, so, n
	}
	emit := c.emitter(ctl.Depth + len(ctl.Chain))
	write := ctl.Kind == StoreKind || ctl.Kind == ScatterKind
	event := func(o, n int, sparse []int32) {
		if emit != nil {
			emit(ExecEvent{Ctrl: ctl, Buf: x.DRAM, DenseOff: o, DenseLen: n, SparseAddrs: sparse, Write: write})
		}
	}
	dram := dramOf(x.DRAM)

	// The on-chip end: an SRAM (preferred when both are set) or a FIFO.
	var sram []uint32
	var q *wordQueue
	if x.SRAM != nil {
		sameType(ctl, x.SRAM.Name, x.SRAM.Elem)
		sram = c.sram(x.SRAM)
	} else if x.FIFO != nil {
		sameType(ctl, x.FIFO.Name, x.FIFO.Elem)
		q = c.fifo(x.FIFO)
	}

	switch ctl.Kind {
	case LoadKind:
		return func() {
			o, so, _ := operands()
			if q == nil && so >= 0 && so+x.Len <= len(sram) && dram.load(o, sram[so:so+x.Len]) {
				event(o, x.Len, nil)
				return
			}
			// Element by element, failing where the oracle does.
			for i := 0; i < x.Len; i++ {
				w := dram.read(o + i)
				if q != nil {
					q.push(w)
					continue
				}
				if so+i < 0 || so+i >= len(sram) {
					ifail("load %q overflows SRAM %q at %d", ctl.Name, x.SRAM.Name, so+i)
				}
				sram[so+i] = w
			}
			event(o, x.Len, nil)
		}
	case StoreKind:
		if q != nil {
			return func() {
				o, _, n := operands()
				if n < 0 || n > q.len() {
					ifail("store %q pops %d from FIFO %q holding %d", ctl.Name, n, x.FIFO.Name, q.len())
				}
				for i := 0; i < n; i++ {
					w, _ := q.pop()
					dram.write(o+i, w)
				}
				event(o, n, nil)
			}
		}
		return func() {
			o, so, _ := operands()
			if so >= 0 && so+x.Len <= len(sram) && dram.store(o, sram[so:so+x.Len]) {
				event(o, x.Len, nil)
				return
			}
			for i := 0; i < x.Len; i++ {
				if so+i < 0 || so+i >= len(sram) {
					ifail("store %q reads past SRAM %q at %d", ctl.Name, x.SRAM.Name, so+i)
				}
				dram.write(o+i, sram[so+i])
			}
			event(o, x.Len, nil)
		}
	case GatherKind:
		addrAt := c.addrStream(ctl)
		return func() {
			o, _, n := operands()
			var addrs []int32
			for i := 0; i < n; i++ {
				av := addrAt(i)
				if emit != nil {
					addrs = append(addrs, av)
				}
				w := dram.read(o + int(av))
				if q != nil {
					q.push(w)
					continue
				}
				if i >= len(sram) {
					ifail("gather %q overflows SRAM %q at %d", ctl.Name, x.SRAM.Name, i)
				}
				sram[i] = w
			}
			event(o, 0, addrs)
		}
	}

	// Scatter: the data to write streams from an SRAM or a FIFO.
	addrAt := c.addrStream(ctl)
	var data []uint32
	var dq *wordQueue
	if x.DataMem != nil {
		sameType(ctl, x.DataMem.Name, x.DataMem.Elem)
		data = c.sram(x.DataMem)
	} else {
		sameType(ctl, x.DataFIFO.Name, x.DataFIFO.Elem)
		dq = c.fifo(x.DataFIFO)
	}
	return func() {
		o, _, n := operands()
		var addrs []int32
		for i := 0; i < n; i++ {
			av := addrAt(i)
			if emit != nil {
				addrs = append(addrs, av)
			}
			var w uint32
			if dq != nil {
				var ok bool
				if w, ok = dq.pop(); !ok {
					ifail("scatter %q pops empty FIFO %q", ctl.Name, x.DataFIFO.Name)
				}
			} else {
				if i >= len(data) {
					ifail("scatter %q reads past SRAM %q at %d", ctl.Name, x.DataMem.Name, i)
				}
				w = data[i]
			}
			dram.write(o+int(av), w)
		}
		event(o, 0, addrs)
	}
}

// addrStream returns the i-th element of a sparse transfer's address stream.
func (c *progCompiler) addrStream(ctl *Controller) func(i int) int32 {
	x := ctl.Xfer
	if x.AddrMem != nil {
		if x.AddrMem.Elem != pattern.I32 {
			ifail("transfer %q address stream is not i32", ctl.Name)
		}
		mem := c.sram(x.AddrMem)
		return func(i int) int32 {
			if i >= len(mem) {
				ifail("transfer %q reads past address SRAM %q at %d", ctl.Name, x.AddrMem.Name, i)
			}
			return int32(mem[i])
		}
	}
	if x.AddrFIFO.Elem != pattern.I32 {
		ifail("transfer %q address stream is not i32", ctl.Name)
	}
	q := c.fifo(x.AddrFIFO)
	return func(int) int32 {
		w, ok := q.pop()
		if !ok {
			ifail("transfer %q pops empty address FIFO %q", ctl.Name, x.AddrFIFO.Name)
		}
		return int32(w)
	}
}
