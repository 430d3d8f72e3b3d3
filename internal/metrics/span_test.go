package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestReqTraceSpans: a request's tree records a child span inside its
// root, and a second End does not move the duration or the summary the
// first one recorded.
func TestReqTraceSpans(t *testing.T) {
	ctx, root := Start(context.Background(), "request")
	_, sp := Start(ctx, "compile")
	time.Sleep(2 * time.Millisecond)
	sp.EndWith("first", map[string]int64{"n": 1}, nil)
	time.Sleep(time.Millisecond)
	sp.EndWith("second", nil, fmt.Errorf("late"))
	sp.End()
	root.End()

	snap := root.Snapshot()
	if len(snap.Children) != 1 {
		t.Fatalf("got %d children, want 1", len(snap.Children))
	}
	c := snap.Children[0]
	if c.Name != "compile" || c.Detail != "first" || c.Stats["n"] != 1 || c.Err != "" {
		t.Errorf("second End overwrote the first: %+v", c)
	}
	if c.DurUS < 2000 || c.DurUS > root.DurUS {
		t.Errorf("compile duration %vµs, want ≥ 2000 and within the root's %v", c.DurUS, root.DurUS)
	}
	if c.StartUS < 0 || c.StartUS+c.DurUS > snap.DurUS {
		t.Errorf("compile [%v, +%v] lies outside its root [0, %v]", c.StartUS, c.DurUS, snap.DurUS)
	}
}

// TestReqTraceUnendedSpanNotRecorded: a span that has not ended — and everything
// under it — is missing from a snapshot.
func TestReqTraceUnendedSpanNotRecorded(t *testing.T) {
	ctx, root := Start(context.Background(), "request")
	qctx, _ := Start(ctx, "queue") // never ended
	_, inner := Start(qctx, "inner")
	inner.End()
	root.End()
	if got := root.Snapshot().Children; len(got) != 0 {
		t.Errorf("unended span recorded: %+v", got)
	}
}

// TestSpanEndedAfterRootNotRecorded: a straggler that ends after its root
// does not change the root's snapshot, however late the snapshot is taken.
func TestSpanEndedAfterRootNotRecorded(t *testing.T) {
	ctx, root := Start(context.Background(), "request")
	_, run := Start(ctx, "run")
	root.End()
	before, err := json.Marshal(root.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	run.End()
	after, err := json.Marshal(root.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("straggler changed the snapshot:\n%s\n%s", before, after)
	}
}

// TestReqTraceSpanCap: a tree links at most MaxSpans spans, root included,
// and counts the rest, a dropped span's descendants too.
func TestReqTraceSpanCap(t *testing.T) {
	ctx, root := Start(context.Background(), "request")
	for i := 0; i < MaxSpans+10; i++ {
		_, sp := Start(ctx, fmt.Sprintf("s%d", i))
		sp.End()
	}
	dctx, dropped := Start(ctx, "dropped")
	_, pass := Start(dctx, "pass")
	pass.End()
	dropped.End()
	root.End()
	snap := root.Snapshot()
	n := 0
	snap.Walk(func(*Span, int) { n++ })
	if n != MaxSpans {
		t.Errorf("snapshot holds %d spans, want the cap %d", n, MaxSpans)
	}
	// 11 siblings past the cap, plus "dropped" and the pass below it.
	if got, want := snap.Dropped, (MaxSpans+10)-(MaxSpans-1)+2; got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
}

// TestNilTraceSafe: every method is safe on a nil span, and Add without a
// current span records nowhere.
func TestNilTraceSafe(t *testing.T) {
	var sp *Span
	sp.End()
	sp.EndWith("x", nil, nil)
	if sp.Snapshot() != nil {
		t.Error("nil span leaked data")
	}
	sp.Walk(func(*Span, int) { t.Error("Walk visited a nil span") })
	Add(context.Background(), "cache", time.Now())
}

// TestContextPlumbing: a span nests under its context's current span, and
// roots a new tree when the context carries none.
func TestContextPlumbing(t *testing.T) {
	ctx, root := Start(context.Background(), "compile")
	pctx, pass := Start(ctx, "validate")
	_, inner := Start(pctx, "inner")
	inner.End()
	pass.End()
	Add(ctx, "cache", time.Now())
	root.End()
	s := root.Snapshot()
	if s.StartUS != 0 || len(s.Children) != 2 || s.Children[0].Name != "validate" || s.Children[1].Name != "cache" {
		t.Fatalf("root = %+v, want validate then cache below it", s)
	}
	if c := s.Children[0].Children; len(c) != 1 || c[0].Name != "inner" {
		t.Errorf("validate holds %+v, want inner", c)
	}
}

// TestSpansSortedByStart: a snapshot lists children by start
// offset, not by the order they were linked or ended.
func TestSpansSortedByStart(t *testing.T) {
	ctx, root := Start(context.Background(), "request")
	early := time.Now()
	time.Sleep(time.Millisecond)
	_, b := Start(ctx, "b")
	Add(ctx, "a", early) // linked after b, started before it
	b.End()
	root.End()
	got := root.Snapshot().Children
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Errorf("children not ordered by start: %+v", got)
	}
}

// TestSpanParallelChildren: jobs on many goroutines record under one
// parent; run under -race this is the lock's test.
func TestSpanParallelChildren(t *testing.T) {
	ctx, root := Start(context.Background(), "request")
	rctx, run := Start(ctx, "run")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jctx, job := Start(rctx, "compile")
			_, pass := Start(jctx, "place")
			pass.End()
			job.End()
			root.Snapshot()
		}()
	}
	wg.Wait()
	run.End()
	root.End()
	snap := root.Snapshot()
	if len(snap.Children) != 1 || len(snap.Children[0].Children) != 8 {
		t.Fatalf("parallel children lost: %+v", snap.Children)
	}
}

// TestSpanJSONRoundTrip: the wire form keeps microsecond offsets with
// their nanoseconds, and decodes back to the same tree.
func TestSpanJSONRoundTrip(t *testing.T) {
	in := &Span{Name: "compile", StartUS: 1.5, DurUS: 2.6, Dropped: 3,
		Children: []*Span{{Name: "route", StartUS: 1.6, DurUS: 1.6, Detail: "32 routes",
			Stats: map[string]int64{"route_hops[1]": 8}, Err: "no route"}}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"compile","start_us":1.5,"dur_us":2.6,"children":[{"name":"route","start_us":1.6,"dur_us":1.6,"detail":"32 routes","stats":{"route_hops[1]":8},"error":"no route"}]}`
	if string(data) != want {
		t.Errorf("wire form\n got %s\nwant %s", data, want)
	}
	var out Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	again, _ := json.Marshal(&out)
	if string(again) != want {
		t.Errorf("round trip\n got %s\nwant %s", again, want)
	}
}
