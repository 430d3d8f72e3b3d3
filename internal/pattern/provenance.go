package pattern

import (
	"fmt"
	"strings"
)

// SourceID is the stable identifier of one node in a pattern's source tree:
// the pattern itself and every expression node, numbered in a deterministic
// pre-order walk. The same pattern structure always yields the same IDs, so
// provenance survives re-compilation and repair.
type SourceID int

// NoSource marks the absence of a source node.
const NoSource SourceID = -1

// SourceNode is one entry of a SourceMap: a pattern or expression node with
// its position in the source tree.
type SourceNode struct {
	ID     SourceID
	Parent SourceID // NoSource for the pattern root
	// Kind is the node's constructor name: "Fold", "Map", "bin(mul)",
	// "read(a)", "idx(0)", ...
	Kind string
	// Role is the edge label from the parent ("F", "Zero", "Cond", "K",
	// "V[1]", argument positions "X"/"Y"/...); empty for the root.
	Role string
}

// SourceMap is the provenance index of one pattern: every node of the
// pattern's source tree with a stable ID, plus rendering helpers. It is built
// once by Describe and threaded (as origin strings) through lowering,
// compilation and simulation so profiles can name source nodes.
type SourceMap struct {
	// PatternName is the pattern kind of the root ("Map", "Fold", ...).
	PatternName string
	Nodes       []SourceNode

	ids map[Expr]SourceID
}

// Describe walks a pattern and assigns every node a stable pre-order
// SourceID: the pattern root is ID 0; body expressions follow in the fixed
// field order of the pattern kind (Zero/F for Fold, Cond/F for FlatMap,
// K/V... for HashReduce), each visited pre-order.
func Describe(p Pattern) *SourceMap {
	m := &SourceMap{PatternName: p.Name(), ids: map[Expr]SourceID{}}
	m.Nodes = append(m.Nodes, SourceNode{ID: 0, Parent: NoSource, Kind: p.Name()})
	root := SourceID(0)
	switch pat := p.(type) {
	case *MapPat:
		m.walk(pat.F, root, "F")
	case *FoldPat:
		m.walk(pat.Zero, root, "Zero")
		m.walk(pat.F, root, "F")
	case *FlatMapPat:
		m.walk(pat.Cond, root, "Cond")
		m.walk(pat.F, root, "F")
	case *HashReducePat:
		m.walk(pat.K, root, "K")
		for i, v := range pat.V {
			m.walk(v, root, fmt.Sprintf("V[%d]", i))
		}
	}
	return m
}

func (m *SourceMap) walk(e Expr, parent SourceID, role string) SourceID {
	id := SourceID(len(m.Nodes))
	m.Nodes = append(m.Nodes, SourceNode{ID: id, Parent: parent, Kind: exprKind(e), Role: role})
	m.ids[e] = id
	kids := e.children()
	for i, c := range kids {
		m.walk(c, id, childRole(e, i))
	}
	return id
}

// exprKind names an expression node the way a user would recognise it.
func exprKind(e Expr) string {
	switch n := e.(type) {
	case *ConstF:
		return fmt.Sprintf("constf(%g)", n.V)
	case *ConstI:
		return fmt.Sprintf("consti(%d)", n.V)
	case *ConstB:
		return fmt.Sprintf("constb(%v)", n.V)
	case *Idx:
		return fmt.Sprintf("idx(%d)", n.Dim)
	case *Bin:
		return fmt.Sprintf("bin(%v)", n.Op)
	case *Un:
		return fmt.Sprintf("un(%v)", n.Op)
	case *Mux:
		return "mux"
	case *ToF32:
		return "tof32"
	case *ToI32:
		return "toi32"
	case *Read:
		return fmt.Sprintf("read(%s)", n.Coll.Name)
	}
	return fmt.Sprintf("%T", e)
}

// childRole labels the i-th child edge of an expression node.
func childRole(e Expr, i int) string {
	switch e.(type) {
	case *Bin:
		return [2]string{"X", "Y"}[i]
	case *Mux:
		return [3]string{"Cond", "T", "F"}[i]
	case *Un, *ToF32, *ToI32:
		return "X"
	case *Read:
		return fmt.Sprintf("Index[%d]", i)
	}
	return fmt.Sprintf("arg[%d]", i)
}

// IDOf returns the SourceID assigned to an expression node during Describe,
// or NoSource if the node was not part of the described pattern.
func (m *SourceMap) IDOf(e Expr) SourceID {
	if id, ok := m.ids[e]; ok {
		return id
	}
	return NoSource
}

// Label renders a source node as a compact stable string: the pattern kind,
// the node ID, and the node's own kind, e.g. "Fold.n3:bin(mul)". ID 0 (the
// root) renders as just the pattern kind.
func (m *SourceMap) Label(id SourceID) string {
	if id <= 0 || int(id) >= len(m.Nodes) {
		return m.PatternName
	}
	return fmt.Sprintf("%s.n%d:%s", m.PatternName, id, m.Nodes[id].Kind)
}

// Path renders the role path from the root to a node, e.g. "Fold/F/X".
func (m *SourceMap) Path(id SourceID) string {
	if id <= 0 || int(id) >= len(m.Nodes) {
		return m.PatternName
	}
	var parts []string
	for id > 0 {
		parts = append(parts, m.Nodes[id].Role)
		id = m.Nodes[id].Parent
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return m.PatternName + "/" + strings.Join(parts, "/")
}
