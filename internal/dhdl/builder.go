package dhdl

import (
	"fmt"

	"plasticine/internal/pattern"
)

// C returns a counter over [0, max) with step 1, no parallelization.
func C(max int) Counter { return Counter{Min: 0, Max: max, Step: 1, Par: 1} }

// CPar returns a counter over [0, max) with step 1 and parallelization
// factor par.
func CPar(max, par int) Counter { return Counter{Min: 0, Max: max, Step: 1, Par: par} }

// CStep returns a counter over [min, max) with the given step (tiling
// counters use step = tile size).
func CStep(min, max, step int) Counter { return Counter{Min: min, Max: max, Step: step, Par: 1} }

// CStepPar returns a stepped counter with a parallelization factor.
func CStepPar(min, max, step, par int) Counter {
	return Counter{Min: min, Max: max, Step: step, Par: par}
}

// CDyn returns a counter over [0, reg) read at runtime.
func CDyn(reg *Reg) Counter { return Counter{Min: 0, MaxReg: reg, Step: 1, Par: 1} }

// CDynPar returns a dynamic counter with a parallelization factor.
func CDynPar(reg *Reg, par int) Counter { return Counter{Min: 0, MaxReg: reg, Step: 1, Par: par} }

// Builder incrementally constructs a Program. Memory declarations may occur
// at any point; controllers nest through the closure-based methods, which
// hand the body the counter-index expressions for the newly opened chain.
type Builder struct {
	prog  *Program
	stack []*Controller
	level int
	err   error

	// curOrigin is stamped onto every controller and scratchpad declared
	// until the next SetOrigin call (see Controller.Origin).
	curOrigin string
}

// SetOrigin sets the source-level origin stamped onto subsequently declared
// controllers and scratchpads, until the next call. An empty string clears it
// (declarations then fall back to their Name for provenance). It returns the
// previous origin so callers can scope an origin and restore it:
//
//	prev := b.SetOrigin("Fold.n2:bin(mul)")
//	... declarations ...
//	b.SetOrigin(prev)
func (b *Builder) SetOrigin(origin string) (prev string) {
	prev = b.curOrigin
	b.curOrigin = origin
	return prev
}

// NewBuilder starts a program with a root controller of the given kind
// (usually Sequential) and counter chain.
func NewBuilder(name string, rootKind Kind, chain ...Counter) *Builder {
	root := &Controller{Name: name + ".root", Kind: rootKind, Chain: chain}
	return &Builder{
		prog:  &Program{Name: name, Root: root},
		stack: []*Controller{root},
		level: len(chain),
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Errf records a build error from client code (e.g. a body closure that
// cannot translate an expression). The first recorded error is returned
// from Build; later ones are dropped.
func (b *Builder) Errf(format string, args ...any) { b.fail(format, args...) }

func (b *Builder) top() *Controller { return b.stack[len(b.stack)-1] }

func (b *Builder) add(c *Controller) {
	t := b.top()
	if !t.Kind.IsOuter() {
		b.fail("dhdl: cannot nest %q under leaf %q", c.Name, t.Name)
		return
	}
	t.Children = append(t.Children, c)
}

// DRAMF32 declares an off-chip float32 buffer.
func (b *Builder) DRAMF32(name string, dims ...int) *DRAMBuf {
	d := &DRAMBuf{Name: name, Elem: pattern.F32, Dims: dims}
	b.prog.DRAMs = append(b.prog.DRAMs, d)
	return d
}

// DRAMI32 declares an off-chip int32 buffer.
func (b *Builder) DRAMI32(name string, dims ...int) *DRAMBuf {
	d := &DRAMBuf{Name: name, Elem: pattern.I32, Dims: dims}
	b.prog.DRAMs = append(b.prog.DRAMs, d)
	return d
}

// SRAM declares an on-chip scratchpad of size words.
func (b *Builder) SRAM(name string, elem pattern.Type, size int) *SRAM {
	s := &SRAM{Name: name, Origin: b.curOrigin, Elem: elem, Size: size, Banking: Strided, NBuf: 1}
	b.prog.SRAMs = append(b.prog.SRAMs, s)
	return s
}

// SRAMBanked declares a scratchpad with an explicit banking mode.
func (b *Builder) SRAMBanked(name string, elem pattern.Type, size int, mode BankingMode) *SRAM {
	s := b.SRAM(name, elem, size)
	s.Banking = mode
	return s
}

// Reg declares a scalar register with an initial value.
func (b *Builder) Reg(name string, init pattern.Value) *Reg {
	r := &Reg{Name: name, Elem: init.T, Init: init}
	b.prog.Regs = append(b.prog.Regs, r)
	return r
}

// FIFO declares a streaming FIFO.
func (b *Builder) FIFO(name string, elem pattern.Type, depth int) *FIFOMem {
	f := &FIFOMem{Name: name, Elem: elem, Depth: depth}
	b.prog.FIFOs = append(b.prog.FIFOs, f)
	return f
}

func (b *Builder) outer(kind Kind, name string, chain []Counter, body func(ix []Expr)) {
	c := &Controller{Name: name, Origin: b.curOrigin, Kind: kind, Chain: chain}
	b.add(c)
	b.stack = append(b.stack, c)
	b.level += len(chain)
	ix := make([]Expr, len(chain))
	for i := range ix {
		ix[i] = Idx(b.level - len(chain) + i)
	}
	body(ix)
	b.level -= len(chain)
	b.stack = b.stack[:len(b.stack)-1]
}

// Seq opens a Sequential controller.
func (b *Builder) Seq(name string, chain []Counter, body func(ix []Expr)) {
	b.outer(Sequential, name, chain, body)
}

// Pipe opens a coarse-grained Pipeline controller.
func (b *Builder) Pipe(name string, chain []Counter, body func(ix []Expr)) {
	b.outer(Pipeline, name, chain, body)
}

// StreamCtl opens a Stream controller.
func (b *Builder) StreamCtl(name string, chain []Counter, body func(ix []Expr)) {
	b.outer(Stream, name, chain, body)
}

// Par opens a Parallel controller (no counters).
func (b *Builder) Par(name string, body func()) {
	b.outer(Parallel, name, nil, func([]Expr) { body() })
}

// Compute adds an inner compute controller whose body closure receives the
// index expressions of its own counter chain.
func (b *Builder) Compute(name string, chain []Counter, body func(ix []Expr) []*Assign) {
	c := &Controller{Name: name, Origin: b.curOrigin, Kind: ComputeKind, Chain: chain}
	ix := make([]Expr, len(chain))
	for i := range ix {
		ix[i] = Idx(b.level + i)
	}
	c.Body = body(ix)
	b.add(c)
}

// Load adds a dense DRAM->SRAM transfer of length words starting at DRAM
// word offset off.
func (b *Builder) Load(name string, dram *DRAMBuf, off Expr, sram *SRAM, length int) {
	b.add(&Controller{Name: name, Origin: b.curOrigin, Kind: LoadKind, Xfer: &Transfer{
		DRAM: dram, Off: off, SRAM: sram, Len: length,
	}})
}

// LoadFIFO adds a dense DRAM->FIFO streaming transfer.
func (b *Builder) LoadFIFO(name string, dram *DRAMBuf, off Expr, fifo *FIFOMem, length int) {
	b.add(&Controller{Name: name, Origin: b.curOrigin, Kind: LoadKind, Xfer: &Transfer{
		DRAM: dram, Off: off, FIFO: fifo, Len: length,
	}})
}

// LoadTiled adds a dense transfer with its own counter chain: per chain
// iteration it copies length words from DRAM offset off into SRAM offset
// sramOff (both computed from the chain indices). This is how 2-D tiles
// move row by row.
func (b *Builder) LoadTiled(name string, chain []Counter, dram *DRAMBuf, sram *SRAM, length int,
	f func(ix []Expr) (off, sramOff Expr)) {
	ix := make([]Expr, len(chain))
	for i := range ix {
		ix[i] = Idx(b.level + i)
	}
	off, sramOff := f(ix)
	b.add(&Controller{Name: name, Origin: b.curOrigin, Kind: LoadKind, Chain: chain, Xfer: &Transfer{
		DRAM: dram, Off: off, SRAM: sram, SRAMOff: sramOff, Len: length,
	}})
}

// StoreTiled is LoadTiled in the SRAM->DRAM direction.
func (b *Builder) StoreTiled(name string, chain []Counter, dram *DRAMBuf, sram *SRAM, length int,
	f func(ix []Expr) (off, sramOff Expr)) {
	ix := make([]Expr, len(chain))
	for i := range ix {
		ix[i] = Idx(b.level + i)
	}
	off, sramOff := f(ix)
	b.add(&Controller{Name: name, Origin: b.curOrigin, Kind: StoreKind, Chain: chain, Xfer: &Transfer{
		DRAM: dram, Off: off, SRAM: sram, SRAMOff: sramOff, Len: length,
	}})
}

// Store adds a dense SRAM->DRAM transfer.
func (b *Builder) Store(name string, dram *DRAMBuf, off Expr, sram *SRAM, length int) {
	b.add(&Controller{Name: name, Origin: b.curOrigin, Kind: StoreKind, Xfer: &Transfer{
		DRAM: dram, Off: off, SRAM: sram, Len: length,
	}})
}

// StoreFIFO adds a FIFO->DRAM streaming transfer driven by a dynamic count.
func (b *Builder) StoreFIFO(name string, dram *DRAMBuf, off Expr, fifo *FIFOMem, countReg *Reg) {
	b.add(&Controller{Name: name, Origin: b.curOrigin, Kind: StoreKind, Xfer: &Transfer{
		DRAM: dram, Off: off, FIFO: fifo, Len: 1, CountReg: countReg,
	}})
}

// Gather adds a sparse DRAM read: count addresses from addrMem index dram;
// fetched values land in dst in stream order.
func (b *Builder) Gather(name string, dram *DRAMBuf, addrMem *SRAM, dst *SRAM, count int, countReg *Reg) {
	b.add(&Controller{Name: name, Origin: b.curOrigin, Kind: GatherKind, Xfer: &Transfer{
		DRAM: dram, AddrMem: addrMem, SRAM: dst, Count: count, CountReg: countReg,
	}})
}

// Scatter adds a sparse DRAM write: dram[addrMem[i]] = dataMem[i].
func (b *Builder) Scatter(name string, dram *DRAMBuf, addrMem, dataMem *SRAM, count int, countReg *Reg) {
	b.add(&Controller{Name: name, Origin: b.curOrigin, Kind: ScatterKind, Xfer: &Transfer{
		DRAM: dram, AddrMem: addrMem, DataMem: dataMem, Count: count, CountReg: countReg,
	}})
}

// Assign helpers.

// StoreAt writes val to sram[addr] each iteration.
func StoreAt(sram *SRAM, addr, val Expr) *Assign {
	return &Assign{Kind: WriteSRAM, SRAM: sram, Addr: addr, Val: val}
}

// StoreAtIf conditionally writes val to sram[addr].
func StoreAtIf(sram *SRAM, cond, addr, val Expr) *Assign {
	return &Assign{Kind: WriteSRAM, SRAM: sram, Addr: addr, Val: val, Cond: cond}
}

// SetReg writes val to reg each iteration (last value wins).
func SetReg(reg *Reg, val Expr) *Assign {
	return &Assign{Kind: WriteReg, Reg: reg, Val: val}
}

// Accum folds val into reg with op across the compute's domain.
func Accum(reg *Reg, op pattern.Op, val Expr) *Assign {
	return &Assign{Kind: ReduceReg, Reg: reg, Val: val, Combine: op}
}

// AccumIf conditionally folds val into reg.
func AccumIf(reg *Reg, op pattern.Op, cond, val Expr) *Assign {
	return &Assign{Kind: ReduceReg, Reg: reg, Val: val, Combine: op, Cond: cond}
}

// AccumAt read-modify-writes sram[addr] with op.
func AccumAt(sram *SRAM, op pattern.Op, addr, val Expr) *Assign {
	return &Assign{Kind: ReduceSRAM, SRAM: sram, Addr: addr, Val: val, Combine: op}
}

// Push appends val to fifo.
func Push(fifo *FIFOMem, val Expr) *Assign {
	return &Assign{Kind: PushFIFO, FIFO: fifo, Val: val}
}

// PushIf appends val to fifo when cond holds (FlatMap filter).
func PushIf(fifo *FIFOMem, cond, val Expr) *Assign {
	return &Assign{Kind: PushFIFO, FIFO: fifo, Val: val, Cond: cond}
}

// Build assigns counter depths, validates, records every leaf's memory
// footprint and returns the program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 1 {
		return nil, fmt.Errorf("dhdl: unbalanced controller nesting (%d open)", len(b.stack))
	}
	b.prog.assignDepths()
	if err := b.prog.Finalize(); err != nil {
		return nil, err
	}
	b.prog.Walk(func(c *Controller) {
		if !c.Kind.IsOuter() {
			c.reads, c.writes = c.footprint()
		}
	})
	return b.prog, nil
}

// MustBuild is Build for tests and examples with known-good programs: it
// panics with the build error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
