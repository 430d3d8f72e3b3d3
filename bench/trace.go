package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one call into a layer, recorded by the traced run at the
// benchmark's own call sites (the program itself is not instrumented).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op span
	Pass   int    `json:"pass"`
	Op     int    `json:"op"`
	Name   string `json:"name"`            // layer call, e.g. "compiler.compile"
	Label  string `json:"label,omitempty"` // op spans: the benchmark, sweep or request
	Start  int64  `json:"start_ns"`        // since the tracer was created
	End    int64  `json:"end_ns"`
	// Allocs is the number of heap objects the whole process allocated
	// during the span.
	Allocs uint64 `json:"allocs"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// newTracer starts a tracer; span times are relative to now.
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it and
// returns the span's duration and allocations.
func (t *tracer) begin(pass, op, parent int, name, label string) (int, func() (time.Duration, uint64)) {
	start, a0 := time.Now(), heapAllocs()
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Pass: pass, Op: op, Name: name, Label: label})
	id := len(t.spans)
	t.mu.Unlock()
	return id, func() (time.Duration, uint64) {
		end, a1 := time.Now(), heapAllocs()
		t.mu.Lock()
		s := &t.spans[id-1]
		s.Start, s.End, s.Allocs = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), a1-a0
		t.mu.Unlock()
		return end.Sub(start), a1 - a0
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines, one span per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span name's self time — its duration minus the
// part its child spans cover — summed over all spans and divided by passes.
func selfTimes(spans []Span, passes int) map[string]time.Duration {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	for k := range out {
		out[k] /= time.Duration(max(passes, 1))
	}
	return out
}

// printSelfTimes writes the per-pass self time of every layer, largest
// first.
func printSelfTimes(w io.Writer, self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "self time per traced pass:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %10.4f s\n", n, self[n].Seconds())
	}
}

// heapAllocs is the process's cumulative count of heap allocations.
// ReadMemStats stops the world but flushes every P's allocation cache, so
// the count is exact even for a short span (runtime/metrics counts small
// objects only when a cache is refilled).
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
