package compiler

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"plasticine/internal/pattern"
)

// This file emits the configuration description — "akin to an assembly
// language" (Section 3.6) — for a compiled program: per-unit stage
// programs with register assignments, counter chains, IO bindings and
// control configuration, serialisable as JSON (the "bitstream") and as a
// readable assembly listing.

// CounterConfig is one level of a unit's counter chain.
type CounterConfig struct {
	Min  int `json:"min"`
	Max  int `json:"max"`
	Step int `json:"step"`
	Par  int `json:"par"`
	// DynReg names the scalar input carrying a dynamic limit, if any.
	DynReg string `json:"dynReg,omitempty"`
}

// StageConfig is one SIMD pipeline stage: a single op broadcast across all
// lanes (each stage has one configuration register, Section 3.1).
type StageConfig struct {
	Op   string   `json:"op"`
	Srcs []string `json:"srcs"`
	Dst  string   `json:"dst"`
}

// PCUConfig programs one physical Pattern Compute Unit.
type PCUConfig struct {
	ID    string `json:"id"`
	X     int    `json:"x"`
	Y     int    `json:"y"`
	Leaf  string `json:"leaf"`
	Lanes int    `json:"lanes"`

	Counters []CounterConfig `json:"counters,omitempty"`
	Stages   []StageConfig   `json:"stages"`

	VectorIns  []string `json:"vectorIns,omitempty"`
	ScalarIns  []string `json:"scalarIns,omitempty"`
	VectorOuts []string `json:"vectorOuts,omitempty"`
	ScalarOuts []string `json:"scalarOuts,omitempty"`
}

// PMUConfig programs one Pattern Memory Unit.
type PMUConfig struct {
	ID        string `json:"id"`
	X         int    `json:"x"`
	Y         int    `json:"y"`
	Mem       string `json:"mem"`
	SizeWords int    `json:"sizeWords"`
	Banks     int    `json:"banks"`
	Banking   string `json:"banking"`
	NBuf      int    `json:"nbuf"`
	AddrOps   int    `json:"addrOps"`
	RMWOps    int    `json:"rmwOps,omitempty"`
}

// AGConfig programs one address generator.
type AGConfig struct {
	ID     string `json:"id"`
	Side   string `json:"side"` // "left" or "right"
	Y      int    `json:"y"`
	Leaf   string `json:"leaf"`
	Buffer string `json:"buffer"`
	Sparse bool   `json:"sparse"`
	Write  bool   `json:"write"`
}

// Bitstream is the complete static configuration of the fabric for one
// program.
type Bitstream struct {
	Program string      `json:"program"`
	Grid    [2]int      `json:"grid"` // cols, rows
	PCUs    []PCUConfig `json:"pcus"`
	PMUs    []PMUConfig `json:"pmus"`
	AGs     []AGConfig  `json:"ags"`
}

func opName(op *VOp) string {
	switch op.Kind {
	case MuxOp:
		return "mux"
	case CastOp:
		if op.ToF {
			return "i2f"
		}
		return "f2i"
	case ReduceOp:
		return "reduce_" + op.ALU.String()
	case RMWOp:
		return "rmw_" + op.ALU.String()
	}
	return op.ALU.String()
}

// constName encodes a configuration constant with an explicit type tag so
// stage-program interpretation preserves f32/i32 semantics.
func constName(v pattern.Value) string {
	switch v.T {
	case pattern.F32:
		return fmt.Sprintf("#f%g", v.F)
	case pattern.I32:
		return fmt.Sprintf("#i%d", v.I)
	}
	return fmt.Sprintf("#b%t", v.B)
}

// regAlloc linearly scans one partition's ops and assigns pipeline
// registers: a register is claimed at definition and released after the
// value's last local use.
type regAlloc struct {
	free    []int
	next    int
	regOf   map[string]int
	lastUse map[string]int
}

func newRegAlloc() *regAlloc {
	return &regAlloc{regOf: map[string]int{}, lastUse: map[string]int{}}
}

func (ra *regAlloc) claim(name string) int {
	if r, ok := ra.regOf[name]; ok {
		return r
	}
	var r int
	if n := len(ra.free); n > 0 {
		r = ra.free[n-1]
		ra.free = ra.free[:n-1]
	} else {
		r = ra.next
		ra.next++
	}
	ra.regOf[name] = r
	return r
}

// releaseDead frees the registers of values whose last use is at pos. The
// freed registers join the free list in descending order, so the lowest is
// claimed first, whatever order the map yields them in.
func (ra *regAlloc) releaseDead(pos int) {
	n := len(ra.free)
	for name, last := range ra.lastUse {
		if last == pos {
			if r, ok := ra.regOf[name]; ok {
				ra.free = append(ra.free, r)
				delete(ra.regOf, name)
			}
			delete(ra.lastUse, name)
		}
	}
	slices.Sort(ra.free[n:])
	slices.Reverse(ra.free[n:])
}

// pcuStageProgram renders one partition's ops into stage configs with
// register-assigned operands. Names: v<i> vector input, s<i> scalar input,
// i<l> counter, r<n> pipeline register, #<c> constant.
func pcuStageProgram(u *VirtualPCU, part *PhysPCU) ([]StageConfig, int) {
	ra := newRegAlloc()
	// Pre-compute last local use of every value name.
	valName := func(o Operand) string {
		switch o.Kind {
		case OpResult:
			return fmt.Sprintf("t%d", o.ID)
		case VecIn:
			return fmt.Sprintf("v%d", o.ID)
		case ScalIn:
			return fmt.Sprintf("s%d", o.ID)
		case CtrIdx:
			return fmt.Sprintf("i%d", o.ID)
		}
		return constName(o.Const)
	}
	for pos, op := range part.Ops {
		for _, a := range op.Args {
			if a.Kind == OpResult {
				ra.lastUse[valName(a)] = pos
			}
		}
	}
	var stages []StageConfig
	maxReg := 0
	for pos, op := range part.Ops {
		srcs := make([]string, len(op.Args))
		for i, a := range op.Args {
			name := valName(a)
			switch a.Kind {
			case OpResult:
				if r, ok := ra.regOf[name]; ok {
					srcs[i] = fmt.Sprintf("r%d", r)
				} else {
					// Defined in an earlier partition: arrives on a bus.
					srcs[i] = "x" + name
				}
			default:
				srcs[i] = name
			}
		}
		ra.releaseDead(pos)
		dst := ra.claim(valName(Operand{Kind: OpResult, ID: op.ID}))
		if dst+1 > maxReg {
			maxReg = dst + 1
		}
		stages = append(stages, StageConfig{Op: opName(op), Srcs: srcs, Dst: fmt.Sprintf("r%d", dst)})
	}
	return stages, maxReg
}

// GenerateBitstream emits the configuration for a compiled mapping.
func GenerateBitstream(m *Mapping) *Bitstream {
	bs := &Bitstream{
		Program: m.Prog.Name,
		Grid:    [2]int{m.Params.Chip.Cols, m.Params.Chip.Rows},
	}
	nodePos := map[string]*Node{}
	for _, nd := range m.Netlist.Nodes {
		nodePos[nd.Name] = nd
	}
	for _, pc := range m.Part.PCUs {
		chain := m.Netlist.LeafChain[pc.V.Leaf]
		for k, part := range pc.Parts {
			id := fmt.Sprintf("%s.pcu0.%d", pc.V.Name, k)
			x, y := 0, 0
			if k < len(chain) {
				nd := m.Netlist.Nodes[chain[k]]
				x, y = nd.X, nd.Y
			}
			stages, _ := pcuStageProgram(pc.V, part)
			cfg := PCUConfig{
				ID: id, X: x, Y: y, Leaf: pc.V.Leaf.Name,
				Lanes:  pc.V.Lanes,
				Stages: stages,
			}
			for _, ctr := range pc.V.Leaf.Chain {
				cc := CounterConfig{Min: ctr.Min, Max: ctr.Max, Step: ctr.Step, Par: ctr.Par}
				if ctr.MaxReg != nil {
					cc.DynReg = ctr.MaxReg.Name
				}
				cfg.Counters = append(cfg.Counters, cc)
			}
			if k == 0 {
				for _, vi := range pc.V.VecIns {
					if vi.SRAM != nil {
						cfg.VectorIns = append(cfg.VectorIns, vi.SRAM.Name)
					} else if vi.FIFO != nil {
						cfg.VectorIns = append(cfg.VectorIns, "fifo:"+vi.FIFO.Name)
					}
				}
				for _, si := range pc.V.ScalIns {
					cfg.ScalarIns = append(cfg.ScalarIns, si.Reg.Name)
				}
			}
			if k == len(pc.Parts)-1 {
				for _, o := range pc.V.Outs {
					switch o.Kind {
					case OutVecSRAM:
						cfg.VectorOuts = append(cfg.VectorOuts, o.SRAM.Name)
					case OutVecFIFO:
						cfg.VectorOuts = append(cfg.VectorOuts, "fifo:"+o.FIFO.Name)
					case OutScalReg:
						cfg.ScalarOuts = append(cfg.ScalarOuts, o.Reg.Name)
					}
				}
			}
			bs.PCUs = append(bs.PCUs, cfg)
		}
	}
	for _, pm := range m.Part.PMUs {
		nd := nodePos[fmt.Sprintf("%s.pmu0.0", pm.V.Name)]
		x, y := 0, 0
		if nd != nil {
			x, y = nd.X, nd.Y
		}
		bs.PMUs = append(bs.PMUs, PMUConfig{
			ID: pm.V.Name + ".pmu0", X: x, Y: y,
			Mem:       pm.V.Mem.Name,
			SizeWords: pm.V.Mem.Size,
			Banks:     m.Params.PMU.Banks,
			Banking:   pm.V.Banking.String(),
			NBuf:      pm.V.NBuf,
			AddrOps:   pm.V.AddrOps,
			RMWOps:    pm.V.RMWOps,
		})
	}
	for _, ag := range m.Virtual.AGs {
		nd := nodePos[fmt.Sprintf("%s.ag0", ag.Name)]
		side, y := "left", 0
		if nd != nil {
			y = nd.Y
			if nd.X > 0 {
				side = "right"
			}
		}
		bs.AGs = append(bs.AGs, AGConfig{
			ID: ag.Name + ".ag0", Side: side, Y: y,
			Leaf:   ag.Leaf.Name,
			Buffer: ag.Leaf.Xfer.DRAM.Name,
			Sparse: ag.Sparse,
			Write:  ag.Write,
		})
	}
	sort.Slice(bs.PCUs, func(i, j int) bool { return bs.PCUs[i].ID < bs.PCUs[j].ID })
	sort.Slice(bs.PMUs, func(i, j int) bool { return bs.PMUs[i].ID < bs.PMUs[j].ID })
	sort.Slice(bs.AGs, func(i, j int) bool { return bs.AGs[i].ID < bs.AGs[j].ID })
	return bs
}

// Encode writes the bitstream as indented JSON.
func (b *Bitstream) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Assembly renders the bitstream as a readable listing.
func (b *Bitstream) Assembly() string {
	var s strings.Builder
	fmt.Fprintf(&s, "; program %s on %dx%d fabric\n", b.Program, b.Grid[0], b.Grid[1])
	for _, p := range b.PCUs {
		fmt.Fprintf(&s, "\npcu %s @ (%d,%d) lanes=%d leaf=%s\n", p.ID, p.X, p.Y, p.Lanes, p.Leaf)
		for _, c := range p.Counters {
			lim := fmt.Sprint(c.Max)
			if c.DynReg != "" {
				lim = "$" + c.DynReg
			}
			fmt.Fprintf(&s, "  ctr %d..%s step %d par %d\n", c.Min, lim, c.Step, c.Par)
		}
		if len(p.VectorIns)+len(p.ScalarIns) > 0 {
			fmt.Fprintf(&s, "  in  v[%s] s[%s]\n", strings.Join(p.VectorIns, ","), strings.Join(p.ScalarIns, ","))
		}
		for i, st := range p.Stages {
			fmt.Fprintf(&s, "  s%-2d %s %s <- %s\n", i, st.Op, st.Dst, strings.Join(st.Srcs, ", "))
		}
		if len(p.VectorOuts)+len(p.ScalarOuts) > 0 {
			fmt.Fprintf(&s, "  out v[%s] s[%s]\n", strings.Join(p.VectorOuts, ","), strings.Join(p.ScalarOuts, ","))
		}
	}
	for _, p := range b.PMUs {
		fmt.Fprintf(&s, "\npmu %s @ (%d,%d) %d words x%d-buffered banking=%s addrops=%d",
			p.ID, p.X, p.Y, p.SizeWords, p.NBuf, p.Banking, p.AddrOps)
		if p.RMWOps > 0 {
			fmt.Fprintf(&s, " rmw=%d", p.RMWOps)
		}
		s.WriteString("\n")
	}
	for _, a := range b.AGs {
		mode := "dense"
		if a.Sparse {
			mode = "sparse"
		}
		dir := "read"
		if a.Write {
			dir = "write"
		}
		fmt.Fprintf(&s, "\nag %s @ %s,%d %s %s buffer=%s leaf=%s\n", a.ID, a.Side, a.Y, mode, dir, a.Buffer, a.Leaf)
	}
	return s.String()
}
