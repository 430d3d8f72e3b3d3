package metrics

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"
)

// MaxSpans bounds the spans one tree links, root included, so a request
// that fans out into many evaluations (a sweep, a tune search) cannot grow
// its record without limit. Spans started past the cap are counted in the
// snapshot's Dropped instead.
const MaxSpans = 64

// Span is one timed interval of host work in a tree of them: a request and
// its admission, queue, run and marshal phases; an evaluation's build,
// compile, sim and check; a compile's passes. Times are microseconds,
// fractional so pass times keep their nanoseconds, and the struct is its
// own wire form.
//
// A span starts from a context (Start) and nests under the context's
// current span, or roots a new tree when there is none. Every method is
// safe on a nil span and from any goroutine: one lock per tree guards
// linking, ending and snapshotting, so parallel jobs may record under one
// parent. Read a live tree only through Snapshot.
type Span struct {
	Name     string           `json:"name"`
	StartUS  float64          `json:"start_us"` // offset from the root's start
	DurUS    float64          `json:"dur_us"`
	Detail   string           `json:"detail,omitempty"` // one-line summary
	Stats    map[string]int64 `json:"stats,omitempty"`  // histogram buckets use "<metric>[<bucket>]" keys
	Err      string           `json:"error,omitempty"`
	Children []*Span          `json:"children,omitempty"`
	// Dropped, on a snapshot, counts the spans its tree refused past
	// MaxSpans.
	Dropped int `json:"-"`

	tree  *spanTree // nil on a snapshot
	t0    time.Time
	ended bool
}

// spanTree is the state the spans of one tree share.
type spanTree struct {
	mu      sync.Mutex
	epoch   time.Time
	n       int // linked spans, root included
	dropped int
}

type spanKey struct{}

// Start begins a span named name as a child of ctx's current span, or as
// the root of a new tree when ctx carries none, and returns a context
// whose current span is the new one.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	s := begin(ctx, name, time.Now())
	return context.WithValue(ctx, spanKey{}, s), s
}

// Add records a finished span named name that began at start and ends now,
// under ctx's current span: for an interval that proves worth recording
// only once it is over (a cache lookup that turned out to be a hit). With
// no current span there is no tree to record into, and Add does nothing.
func Add(ctx context.Context, name string, start time.Time) {
	if ctx.Value(spanKey{}) != nil {
		begin(ctx, name, start).End()
	}
}

func begin(ctx context.Context, name string, t0 time.Time) *Span {
	s := &Span{Name: name, t0: t0}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		s.tree = &spanTree{epoch: t0, n: 1}
		return s
	}
	// Once a tree is full it stays full, so a span past the cap and all
	// its descendants are dropped.
	t := parent.tree
	s.tree, s.StartUS = t, micros(t0.Sub(t.epoch))
	t.mu.Lock()
	if t.n < MaxSpans {
		t.n++
		parent.Children = append(parent.Children, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return s
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// End ends the span. Only the first End or EndWith counts.
func (s *Span) End() { s.EndWith("", nil, nil) }

// EndWith ends the span with a summary, stats (which the span takes
// ownership of) and the error the interval failed with, if any. Only the
// first End or EndWith counts.
func (s *Span) EndWith(detail string, stats map[string]int64, err error) {
	if s == nil || s.tree == nil {
		return
	}
	d := micros(time.Since(s.t0))
	s.tree.mu.Lock()
	if !s.ended {
		s.ended, s.DurUS, s.Detail, s.Stats = true, d, detail, stats
		if err != nil {
			s.Err = err.Error()
		}
	}
	s.tree.mu.Unlock()
}

// Snapshot returns a copy of an ended span and of every descendant that
// had ended by the time it did, children ordered by start. The copy shares
// nothing mutable with the live tree: jobs still running under s cannot
// change it.
func (s *Span) Snapshot() *Span {
	if s == nil || s.tree == nil {
		return s
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	c := s.copyUntil(s.StartUS + s.DurUS)
	c.Dropped = s.tree.dropped
	return c
}

func (s *Span) copyUntil(cut float64) *Span {
	c := &Span{Name: s.Name, StartUS: s.StartUS, DurUS: s.DurUS, Detail: s.Detail, Stats: s.Stats, Err: s.Err}
	for _, ch := range s.Children {
		if ch.ended && ch.StartUS+ch.DurUS <= cut {
			c.Children = append(c.Children, ch.copyUntil(cut))
		}
	}
	slices.SortStableFunc(c.Children, func(a, b *Span) int { return cmp.Compare(a.StartUS, b.StartUS) })
	return c
}

// Walk calls fn on s and then on each descendant, depth first in child
// order, with its depth below s. Walk a Snapshot, not a live tree.
func (s *Span) Walk(fn func(sp *Span, depth int)) { s.walk(fn, 0) }

func (s *Span) walk(fn func(sp *Span, depth int), depth int) {
	if s == nil {
		return
	}
	fn(s, depth)
	for _, ch := range s.Children {
		ch.walk(fn, depth+1)
	}
}
