package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"plasticine/internal/metrics"
)

// ChromeEvent is one trace-event in the Chrome trace-event format
// (catapult "JSON Array Format"); chrome://tracing and Perfetto load it
// directly. Complete events ("ph":"X") carry ts+dur; metadata events
// ("ph":"M") name the process and threads.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level document.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// OtherData carries run-level metadata (total cycles, bottleneck).
	OtherData map[string]any `json:"otherData,omitempty"`
}

// ChromeTrace renders the collected slices as a Chrome trace: one thread
// per unit, a complete event per activity slice, and instant-style complete
// events for recovery windows on a dedicated "recovery" thread. Timestamps
// are cycles interpreted as microseconds (1 GHz fabric: 1 cycle = 1 ns, so
// a displayed "us" is a real ns — the shapes, not the absolute unit, are
// what the viewer is for). A non-nil host is the run's host-time span tree
// (a profile's build, compile and its passes, sim with any repair, check):
// it appears as a second process ("compiler", pid 1), every span at its
// recorded offset from host's start in wall-clock microseconds, so a child
// lies inside its parent. Events are sorted by timestamp, so consumers see
// monotonic ts.
func (c *Collector) ChromeTrace(benchmark string, host *metrics.Span) ([]byte, error) {
	doc := ChromeTrace{DisplayTimeUnit: "ns",
		OtherData: map[string]any{"total_cycles": c.total}}
	if benchmark != "" {
		doc.OtherData["benchmark"] = benchmark
	}
	doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "plasticine"},
	})
	const recoveryTid = 0 // units start at tid 1
	doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
		Name: "thread_name", Ph: "M", Pid: 0, Tid: recoveryTid,
		Args: map[string]any{"name": "recovery"},
	})
	var events []ChromeEvent
	for id, u := range c.units {
		tid := id + 1
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("%s [%s]", u.name, u.kind)},
		})
		for _, s := range u.slices {
			events = append(events, ChromeEvent{
				Name: s.Label, Ph: "X", Cat: u.kind.String(),
				Ts: s.Start, Dur: s.End - s.Start, Pid: 0, Tid: tid,
				Args: map[string]any{"busy_cycles": s.Busy},
			})
		}
	}
	for _, w := range c.windows {
		events = append(events, ChromeEvent{
			Name: w.Cause.String(), Ph: "X", Cat: "recovery",
			Ts: w.From, Dur: w.To - w.From, Pid: 0, Tid: recoveryTid,
		})
	}
	if host != nil {
		const compilerPid = 1
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: compilerPid,
			Args: map[string]any{"name": "compiler"},
		}, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: compilerPid, Tid: 0,
			Args: map[string]any{"name": "host"},
		})
		host.Walk(func(sp *metrics.Span, _ int) {
			// Both ends are truncated to whole microseconds, so truncation
			// keeps a child inside its parent.
			from := int64(sp.StartUS - host.StartUS)
			to := int64(sp.StartUS + sp.DurUS - host.StartUS)
			args := map[string]any{"wall_ns": int64(math.Round(sp.DurUS * 1e3))}
			if sp.Detail != "" {
				args["detail"] = sp.Detail
			}
			events = append(events, ChromeEvent{
				Name: sp.Name, Ph: "X", Cat: "host", Ts: from, Dur: to - from,
				Pid: compilerPid, Tid: 0, Args: args,
			})
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	doc.TraceEvents = append(doc.TraceEvents, events...)
	out, err := json.MarshalIndent(&doc, "", " ")
	if err != nil {
		return nil, fmt.Errorf("trace: chrome encode: %w", err)
	}
	if err := ValidateChrome(out); err != nil {
		return nil, fmt.Errorf("trace: emitted chrome trace failed self-validation: %w", err)
	}
	return out, nil
}

// ValidateChrome round-trips an encoded Chrome trace through encoding/json
// and checks the structural invariants consumers rely on: at least one
// event, non-negative timestamps and durations, and monotonically
// non-decreasing timestamps among the "X" (complete) events.
func ValidateChrome(data []byte) error {
	var doc ChromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace: chrome trace is not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace: chrome trace has no events")
	}
	last := int64(-1)
	complete := 0
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			complete++
		default:
			return fmt.Errorf("trace: event %d has unsupported phase %q", i, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative ts/dur (%d/%d)", i, ev.Name, ev.Ts, ev.Dur)
		}
		if ev.Ts < last {
			return fmt.Errorf("trace: event %d (%s) breaks ts monotonicity (%d after %d)", i, ev.Name, ev.Ts, last)
		}
		last = ev.Ts
	}
	if complete == 0 {
		return fmt.Errorf("trace: chrome trace has no complete events")
	}
	return nil
}

// CountersJSON renders the rolled-up Report as indented machine-readable
// JSON (the flat counters artefact for the bench trajectory).
func (c *Collector) CountersJSON(benchmark string) ([]byte, error) {
	r := c.Report()
	r.Benchmark = benchmark
	return json.MarshalIndent(r, "", "  ")
}
