package sim

import (
	"context"
	"fmt"
	"slices"

	"plasticine/internal/dhdl"
)

// Log is the functional phase's record of one run: every leaf execution in
// program order. It holds no pointers into the program. A leaf is its
// position in dhdl.Program.Leaves, a transfer's DRAM buffer is its leaf's
// own, and the events' counter values and sparse addresses sit back to back
// in two shared arrays. So one log replays against any mapping of the
// program it was recorded from, or of a fresh instance of the same
// benchmark, whose leaves come in the same order. A Log is immutable once
// Execute returns it and safe to replay from many goroutines at once.
type Log struct {
	prog   string // the traced program's name
	leaves int    // its leaf count
	events []logEvent
	env    []int32 // every event's counter values, in event order
	addrs  []int32 // every sparse transfer's element indices, in event order
}

// logEvent is one leaf execution. Its counter values are
// Log.env[env:next.env] and its sparse addresses Log.addrs[addrs:next.addrs],
// where next is the following event (the arrays' ends for the last).
type logEvent struct {
	leaf  int32
	env   int32
	addrs int32
	n     int32 // a dense transfer's length in words
	x     int64 // a compute's body iterations; a transfer's word offset
}

// Events returns the number of leaf executions the log holds.
func (l *Log) Events() int { return len(l.events) }

// Execute is the functional phase: it runs p's interpreter once and records
// its leaf executions. All of p's DRAM buffers must be bound; the run
// writes its results into those collections and the returned state, so a
// bound program runs here once (a second run would start from the first
// one's outputs). The log it returns replays any number of times. The
// interpreter polls ctx before every leaf, so a canceled run stops there,
// with an error wrapping ctx.Err().
func Execute(ctx context.Context, p *dhdl.Program) (*Log, *dhdl.State, error) {
	leaves := p.Leaves()
	leafOf := make(map[*dhdl.Controller]int32, len(leaves))
	for i, c := range leaves {
		leafOf[c] = int32(i)
	}
	l := &Log{prog: p.Name, leaves: len(leaves)}
	// The event's counter values and sparse addresses sit in buffers the
	// interpreter reuses; these appends are their one copy.
	st, err := dhdl.TraceContext(ctx, p, func(ev *dhdl.ExecEvent) {
		e := logEvent{leaf: leafOf[ev.Ctrl], env: int32(len(l.env)), addrs: int32(len(l.addrs)), x: ev.Iters}
		if ev.Ctrl.Kind != dhdl.ComputeKind {
			e.x, e.n = int64(ev.DenseOff), int32(ev.DenseLen)
			l.addrs = appendDoubling(l.addrs, ev.SparseAddrs...)
		}
		l.env = appendDoubling(l.env, ev.Env...)
		l.events = appendDoubling(l.events, e)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sim: functional execution failed: %w", err)
	}
	return l, st, nil
}

// appendDoubling is append that at least doubles a full slice's capacity.
// append itself grows a long slice by a quarter, which for a log of tens of
// thousands of events allocates about five times what the log keeps.
func appendDoubling[T any](s []T, vs ...T) []T {
	if len(s)+len(vs) > cap(s) {
		s = slices.Grow(s, max(len(s), len(vs)))
	}
	return append(s, vs...)
}

// replayTo feeds the log's events to handle (the graph builder's), as leaf
// executions of p. It polls ctx every ctxCheckInterval events.
func (l *Log) replayTo(ctx context.Context, p *dhdl.Program, handle dhdl.ExecHook) error {
	leaves := p.Leaves()
	if len(leaves) != l.leaves || p.Name != l.prog {
		return fmt.Errorf("sim: the event log of %q (%d leaves) does not belong to %q (%d leaves)",
			l.prog, l.leaves, p.Name, len(leaves))
	}
	paths := leafPaths(p, len(leaves))
	var ev dhdl.ExecEvent
	for i := range l.events {
		if i%ctxCheckInterval == 0 && ctx.Err() != nil {
			return fmt.Errorf("sim: graph build: %w", ctx.Err())
		}
		e := &l.events[i]
		envEnd, addrsEnd := len(l.env), len(l.addrs)
		if i+1 < len(l.events) {
			envEnd, addrsEnd = int(l.events[i+1].env), int(l.events[i+1].addrs)
		}
		c := leaves[e.leaf]
		ev = dhdl.ExecEvent{Ctrl: c, Path: paths[e.leaf], Env: l.env[e.env:envEnd:envEnd]}
		if c.Kind == dhdl.ComputeKind {
			ev.Iters = e.x
		} else {
			ev.Buf, ev.DenseOff, ev.DenseLen = c.Xfer.DRAM, int(e.x), int(e.n)
			ev.Write = c.Kind == dhdl.StoreKind || c.Kind == dhdl.ScatterKind
			if e.addrs < int32(addrsEnd) {
				ev.SparseAddrs = l.addrs[e.addrs:addrsEnd:addrsEnd]
			}
		}
		handle(&ev)
	}
	return nil
}

// leafPaths returns each leaf's ancestors, root first and ending at the
// leaf, indexed like p.Leaves.
func leafPaths(p *dhdl.Program, n int) [][]*dhdl.Controller {
	paths := make([][]*dhdl.Controller, 0, n)
	var stack []*dhdl.Controller
	var walk func(c *dhdl.Controller)
	walk = func(c *dhdl.Controller) {
		stack = append(stack, c)
		if !c.Kind.IsOuter() {
			paths = append(paths, append([]*dhdl.Controller(nil), stack...))
		}
		for _, ch := range c.Children {
			walk(ch)
		}
		stack = stack[:len(stack)-1]
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return paths
}
