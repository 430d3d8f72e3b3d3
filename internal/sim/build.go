package sim

import (
	"bytes"
	"math/bits"
	"strconv"
	"strings"

	"plasticine/internal/compiler"
	"plasticine/internal/dhdl"
	"plasticine/internal/trace"
)

const burstBytes = 64

// simUnit is one physical unit the builder discovered: an unroll copy-lane of
// a compute leaf (a PCU pipeline) or of a transfer leaf (an AG + coalescing
// unit). Activities carry the unit's index; the observability layer replays
// per-unit timelines from it.
type simUnit struct {
	name   string
	origin string // source-level provenance of the leaf (empty = name)
	kind   trace.UnitKind
}

// builder consumes traced execution events and grows the activity graph.
//
// Its keys are built in one reused byte buffer (key) and read from maps as
// m[string(key)], which allocates nothing; a key string is made only when a
// new key is stored. Keys name controllers by a per-builder number.
type builder struct {
	m    *compiler.Mapping
	acts []*activity

	key      []byte
	ctrlNums map[*dhdl.Controller]int

	// DRAM buffer base addresses (4 KB aligned).
	base map[*dhdl.DRAMBuf]uint64

	// Per-physical-unit occupancy: the last execution on each unroll copy
	// of each leaf, indexed by unit.
	lastOfUnit []*activity
	// lastXferKey identifies the enclosing iteration of the last transfer
	// per leaf: rows of one tiled transfer merge into a single AG command
	// stream rather than separate round-trips.
	lastXferKey map[*dhdl.Controller][]byte

	// Per-memory version state for RAW/WAR edges. Memories are privatised
	// per unroll copy (the compiler duplicates PMUs under outer
	// parallelization), so the key combines the object with the copy
	// identity, numbered through copyOf.
	mems   map[memKey]*memVersions
	copyOf map[string]int

	// Per-Sequential-controller-instance subtree barriers, keyed by the
	// controller plus its enclosing iteration (unrolled copies of a
	// Sequential subtree are independent instances).
	seq map[string]*seqState

	// Physical-unit registry: one entry per distinct unit key, in discovery
	// order. Activities store indices into units.
	units  []simUnit
	unitOf map[string]int

	// Coalescing-unit state survives across sparse transfers of the same
	// leaf only; a fresh cache per activity is a close, simpler model.
	// window holds that cache; its storage is reused.
	coalesceWindow int
	window         burstSet
	// disableNBuffer forces single buffering everywhere (ablation).
	disableNBuffer bool
}

type memVersions struct {
	nbuf int
	// writers of the current version; readers per live version (ring of
	// length nbuf, index 0 = current).
	writers        []*activity
	readers        [][]*activity
	readSinceWrite bool
}

type seqState struct {
	key     []byte // the child subtree and iteration now running
	group   []*activity
	barrier *activity
}

func newBuilder(m *compiler.Mapping) *builder {
	b := &builder{
		m:              m,
		ctrlNums:       map[*dhdl.Controller]int{},
		base:           map[*dhdl.DRAMBuf]uint64{},
		lastXferKey:    map[*dhdl.Controller][]byte{},
		mems:           map[memKey]*memVersions{},
		copyOf:         map[string]int{},
		seq:            map[string]*seqState{},
		unitOf:         map[string]int{},
		coalesceWindow: 64,
	}
	var addr uint64 = 1 << 20 // leave page 0 unmapped
	for _, d := range m.Prog.DRAMs {
		b.base[d] = addr
		n := uint64(d.Bytes())
		addr += (n + 4095) &^ 4095
	}
	return b
}

func (b *builder) newActivity(k actKind, leaf *dhdl.Controller) *activity {
	a := &activity{id: len(b.acts), kind: k, leaf: leaf, unit: -1}
	b.acts = append(b.acts, a)
	return a
}

// ctrlNum numbers controllers in order of first sight.
func (b *builder) ctrlNum(c *dhdl.Controller) int {
	n, ok := b.ctrlNums[c]
	if !ok {
		n = len(b.ctrlNums)
		b.ctrlNums[c] = n
	}
	return n
}

// unitIndex resolves an execution's physical unit to its registry index,
// registering it on first sight. The display name is the leaf's name plus
// the copy-lane suffix ("#0.1" = lane positions at each parallelized level)
// when the leaf is unrolled onto duplicate units.
func (b *builder) unitIndex(ev *dhdl.ExecEvent) int {
	b.key = appendUnitKey(b.key[:0], b.ctrlNum(ev.Ctrl), ev)
	if id, ok := b.unitOf[string(b.key)]; ok {
		return id
	}
	key := string(b.key)
	kind := trace.UnitCompute
	if ev.Ctrl.Kind != dhdl.ComputeKind {
		kind = trace.UnitTransfer
	}
	name := ev.Ctrl.Name
	if cut := strings.IndexByte(key, '|'); cut >= 0 {
		if lanes := strings.TrimSuffix(key[cut+1:], ","); lanes != "" {
			name += "#" + strings.ReplaceAll(lanes, ",", ".")
		}
	}
	id := len(b.units)
	// Unroll copies share the leaf's provenance: the profile rolls them up
	// into one source-level row.
	b.units = append(b.units, simUnit{name: name, origin: ev.Ctrl.Provenance(), kind: kind})
	b.lastOfUnit = append(b.lastOfUnit, nil)
	b.unitOf[key] = id
	return id
}

// copyIndex numbers an execution's unroll copy-lane.
func (b *builder) copyIndex(ev *dhdl.ExecEvent) int {
	b.key = appendCopyKey(b.key[:0], ev)
	id, ok := b.copyOf[string(b.key)]
	if !ok {
		id = len(b.copyOf)
		b.copyOf[string(b.key)] = id
	}
	return id
}

// handle processes one traced leaf execution.
func (b *builder) handle(ev *dhdl.ExecEvent) {
	unit := b.unitIndex(ev)
	var a *activity
	if ev.Ctrl.Kind == dhdl.ComputeKind {
		a = b.newActivity(actCompute, ev.Ctrl)
		lm := b.m.Leaves[ev.Ctrl]
		lanes := int64(lm.Lanes)
		ownUnroll := int64(ownChainUnroll(ev.Ctrl))
		firings := (ev.Iters + lanes*ownUnroll - 1) / (lanes * ownUnroll)
		if firings < 1 {
			firings = 1
		}
		a.fill = int64(lm.PipelineDepth)
		a.dur = a.fill + (firings-1)*int64(lm.II)
	} else {
		// Chain iterations of one tiled transfer (e.g. the rows of a 2-D
		// tile) form a single AG command stream: merge them into the
		// previous activity of the same enclosing iteration.
		b.key = appendEnvPrefix(b.key[:0], ev)
		if prev := b.lastOfUnit[unit]; prev != nil && prev.kind == actTransfer &&
			!prev.resolved && bytes.Equal(b.lastXferKey[ev.Ctrl], b.key) && len(ev.Ctrl.Chain) > 0 {
			b.burstsFor(prev, ev)
			return
		}
		b.lastXferKey[ev.Ctrl] = append(b.lastXferKey[ev.Ctrl][:0], b.key...)
		a = b.newActivity(actTransfer, ev.Ctrl)
		a.write = ev.Write
		b.burstsFor(a, ev)
		a.fill = 8 // command path through AG and coalescing unit
	}

	// Occupancy: successive executions on the same physical unit (the
	// same unroll copy-lane of the same leaf) serialize.
	a.unit = unit
	if prev := b.lastOfUnit[unit]; prev != nil {
		a.addDep(prev, endToStart)
	}
	b.lastOfUnit[unit] = a

	// Sequential ancestors serialize their child subtrees with tokens.
	b.applySequentialBarriers(ev, a)

	// Memory dependencies, privatised per unroll copy.
	copyID := b.copyIndex(ev)
	streamParent := directParent(ev.Path)
	for _, mm := range ev.Ctrl.Reads() {
		mv := b.memState(mm, copyID)
		for _, w := range mv.writers {
			kind := endToStart
			if streamParent != nil && streamParent.Kind == dhdl.Stream && sameParentLeaf(w, ev, streamParent) {
				kind = fillToStart
			}
			a.addDep(w, kind)
		}
		mv.readers[0] = append(mv.readers[0], a)
		mv.readSinceWrite = true
	}
	for _, mm := range ev.Ctrl.Writes() {
		mv := b.memState(mm, copyID)
		if mv.readSinceWrite && !b.isRMW(ev.Ctrl, mm) {
			// New version: rotate the buffer ring; the slot being reused
			// must have been drained by its readers (write-after-read with
			// N-buffer credits, Section 3.5).
			evicted := mv.readers[len(mv.readers)-1]
			copy(mv.readers[1:], mv.readers[:len(mv.readers)-1])
			mv.readers[0] = nil
			for _, r := range evicted {
				a.addDepWAR(r)
			}
			mv.writers = mv.writers[:0]
			mv.readSinceWrite = false
		}
		mv.writers = append(mv.writers, a)
	}
}

type memKey struct {
	mem  any
	copy int
}

func (b *builder) memState(m any, copyID int) *memVersions {
	k := memKey{m, copyID}
	if mv, ok := b.mems[k]; ok {
		return mv
	}
	nbuf := 1
	if s, ok := m.(*dhdl.SRAM); ok && !b.disableNBuffer {
		if mm := b.m.Mems[s]; mm != nil && mm.NBuf > nbuf {
			nbuf = mm.NBuf
		}
	}
	mv := &memVersions{nbuf: nbuf, readers: make([][]*activity, nbuf)}
	b.mems[k] = mv
	return mv
}

// isRMW reports whether the leaf both reads and writes m in a
// read-modify-write fashion (ReduceSRAM), which stays within one version.
func (b *builder) isRMW(c *dhdl.Controller, m any) bool {
	s, ok := m.(*dhdl.SRAM)
	if !ok || c.Kind != dhdl.ComputeKind {
		return false
	}
	for _, as := range c.Body {
		if as.Kind == dhdl.ReduceSRAM && as.SRAM == s {
			return true
		}
	}
	return false
}

func (b *builder) applySequentialBarriers(ev *dhdl.ExecEvent, a *activity) {
	// For each Sequential ancestor, the key is (child subtree, iteration
	// values of the ancestor's own counters). A key change means the
	// previous subtree must fully finish before the next starts.
	for i := 0; i < len(ev.Path)-1; i++ {
		anc := ev.Path[i]
		if anc.Kind != dhdl.Sequential {
			continue
		}
		// Instance identity: this controller at this enclosing iteration.
		k := strconv.AppendInt(b.key[:0], int64(b.ctrlNum(anc)), 10)
		for _, v := range ev.Env[:min(anc.Depth, len(ev.Env))] {
			k = strconv.AppendInt(append(k, ';'), int64(v), 10)
		}
		st := b.seq[string(k)]
		fresh := st == nil
		if fresh {
			st = &seqState{}
			b.seq[string(k)] = st
		}
		// The child subtree at the ancestor's own iteration.
		k = strconv.AppendInt(k[:0], int64(b.ctrlNum(ev.Path[i+1])), 10)
		for _, v := range ev.Env[anc.Depth:min(anc.Depth+len(anc.Chain), len(ev.Env))] {
			k = strconv.AppendInt(append(k, ','), int64(v), 10)
		}
		b.key = k
		if !fresh && !bytes.Equal(st.key, k) {
			bar := b.newActivity(actBarrier, nil)
			for _, m := range st.group {
				bar.addDep(m, endToStart)
			}
			st.barrier = bar
			st.group = nil
		}
		st.key = append(st.key[:0], k...)
		if st.barrier != nil {
			a.addDep(st.barrier, endToStart)
		}
		st.group = append(st.group, a)
	}
}

// ownChainUnroll is the product of non-innermost Par factors of a compute's
// own counter chain (duplicate pipelines working on one leaf execution).
func ownChainUnroll(c *dhdl.Controller) int {
	u := 1
	for i, ctr := range c.Chain {
		if i != len(c.Chain)-1 {
			u *= ctr.Par
		}
	}
	return u
}

// appendUnitKey appends the physical unit instance an execution runs on:
// the leaf (by its controller number) plus its copy-lane. Executions with
// the same unit key share hardware and serialize; different copy-lanes are
// duplicate units and may overlap (subject to data dependencies).
func appendUnitKey(dst []byte, leaf int, ev *dhdl.ExecEvent) []byte {
	dst = append(strconv.AppendInt(dst, int64(leaf), 10), '|')
	return appendCopyKey(dst, ev)
}

// appendCopyKey appends which unroll copy-lane a leaf execution belongs to:
// position modulo Par at every parallelized counter level above the leaf,
// each followed by a comma. Copies run on duplicate units with privatised
// tile memories; successive waves on the same lane share the physical
// memory, so its N-buffer write-after-read credits still apply across
// waves.
func appendCopyKey(dst []byte, ev *dhdl.ExecEvent) []byte {
	level := 0
	ownDepth := ev.Ctrl.Depth
	for _, c := range ev.Path {
		for _, ctr := range c.Chain {
			if level >= len(ev.Env) || level >= ownDepth {
				return dst
			}
			if ctr.Par > 1 {
				pos := (int(ev.Env[level]) - ctr.Min) / ctr.Step
				dst = append(strconv.AppendInt(dst, int64(pos%ctr.Par), 10), ',')
			}
			level++
		}
	}
	return dst
}

// appendEnvPrefix appends the enclosing-controller iteration of a leaf
// execution: the counter values above the leaf's own chain, each followed
// by a comma.
func appendEnvPrefix(dst []byte, ev *dhdl.ExecEvent) []byte {
	for _, v := range ev.Env[:min(ev.Ctrl.Depth, len(ev.Env))] {
		dst = append(strconv.AppendInt(dst, int64(v), 10), ',')
	}
	return dst
}

func directParent(path []*dhdl.Controller) *dhdl.Controller {
	if len(path) < 2 {
		return nil
	}
	return path[len(path)-2]
}

// sameParentLeaf reports whether activity w's leaf is also a direct child
// of the given stream parent.
func sameParentLeaf(w *activity, ev *dhdl.ExecEvent, parent *dhdl.Controller) bool {
	if w.leaf == nil {
		return false
	}
	for _, ch := range parent.Children {
		if ch == w.leaf {
			return true
		}
	}
	return false
}

// burstsFor appends a transfer event's bursts to a's. A dense transfer is
// one row of consecutive bursts (addRow); a sparse transfer goes through the
// coalescing cache, which merges addresses falling into the same burst
// within a sliding window (Section 3.4), and lists the bursts it keeps.
func (b *builder) burstsFor(a *activity, ev *dhdl.ExecEvent) {
	base := b.base[ev.Buf]
	if len(ev.SparseAddrs) == 0 {
		startB := base + uint64(ev.DenseOff)*4
		endB := startB + uint64(ev.DenseLen)*4
		first := startB &^ (burstBytes - 1)
		if endB > first {
			a.addRow(first, int((endB-first+burstBytes-1)/burstBytes))
		}
		return
	}
	// Coalescing cache: the last coalesceWindow distinct bursts, fresh for
	// every transfer. They are the bursts this call listed, so
	// a.list[oldest:] is the window, oldest first, and b.window answers
	// membership; it holds one more while a new burst joins before the
	// oldest leaves.
	start := len(a.list)
	oldest := start
	b.window.reset(min(b.coalesceWindow, len(ev.SparseAddrs)) + 1)
	for _, idx := range ev.SparseAddrs {
		addr := (base + uint64(ev.DenseOff)*4 + uint64(idx)*4) &^ (burstBytes - 1)
		if !b.window.add(addr) {
			continue
		}
		a.list = append(a.list, addr)
		if len(a.list)-oldest > b.coalesceWindow {
			b.window.remove(a.list[oldest])
			oldest++
		}
	}
	a.addListed(start, len(a.list)-start)
}

// burstSet is the coalescing window's membership test: an open-addressed
// set of burst addresses with linear probing. A slot holds addr|1, which
// no empty slot (0) equals, as bursts are 64-byte aligned.
type burstSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): home slots take a hash's top bits
}

// reset empties the set and sizes it so that n members fill at most half
// its slots, reusing its storage.
func (s *burstSet) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(s.slots) < size {
		s.slots = make([]uint64, size)
	} else {
		s.slots = s.slots[:size]
		clear(s.slots)
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

func (s *burstSet) home(key uint64) int { return int((key * 0x9E3779B97F4A7C15) >> s.shift) }

// add inserts addr and reports whether it was absent.
func (s *burstSet) add(addr uint64) bool {
	key, mask := addr|1, len(s.slots)-1
	for i := s.home(key); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			return true
		}
	}
}

// remove deletes addr, a member. Rather than leave a hole that would cut a
// later probe short, it shifts back each member of the run after it whose
// home lies at or before the hole.
func (s *burstSet) remove(addr uint64) {
	key, mask := addr|1, len(s.slots)-1
	i := s.home(key)
	for s.slots[i] != key {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.slots[j]))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}
