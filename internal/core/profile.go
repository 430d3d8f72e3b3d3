package core

// Profiling: run a benchmark with the observability subsystem armed
// (internal/trace), roll the counters into the paper-style utilization
// report, and export Chrome-trace / flat-counters JSON. This is the backend
// of `plasticine profile` and `plasticine bench`.

import (
	"encoding/json"
	"fmt"
	"strings"

	"plasticine/internal/metrics"
	"plasticine/internal/stats"
	"plasticine/internal/trace"
)

// ProfileResult bundles one profiled benchmark run: the evaluation row, the
// rolled-up cycle-accounting report (per physical unit and per source-level
// pattern node), the evaluation's host-time span tree, and the raw
// collector for export.
type ProfileResult struct {
	Bench     *BenchResult
	Report    *trace.Report
	Pattern   *trace.PatternReport
	Spans     *metrics.Span
	Collector *trace.Collector
}

// ChromeTrace exports the run as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto), host spans on the compiler process.
func (p *ProfileResult) ChromeTrace() ([]byte, error) {
	return p.Collector.ChromeTrace(p.Report.Benchmark, p.Spans)
}

// CountersJSON exports the rolled-up report as flat JSON.
func (p *ProfileResult) CountersJSON() ([]byte, error) {
	return p.Collector.CountersJSON(p.Report.Benchmark)
}

// maxLinksShown bounds the link table in the rendered profile; the full list
// is always in the counters JSON.
const maxLinksShown = 8

// FormatProfile renders the report as the paper-style utilization tables:
// per-unit cycle accounting (busy + stalls + idle == total, exactly), DRAM
// channel behaviour, the busiest links, and the named bottleneck.
func FormatProfile(rep *trace.Report) string {
	var b strings.Builder
	t := stats.New(fmt.Sprintf("Profile: %s (%d cycles)", rep.Benchmark, rep.TotalCycles),
		"Unit", "Origin", "Kind", "Busy%", "Stall%", "Idle%",
		"In-starve", "Out-bp", "DRAM-wait", "Drain", "Reconfig", "FIFO hw", "Dominant stall")
	for i := range rep.Units {
		u := &rep.Units[i]
		tot := float64(u.Total)
		if tot == 0 {
			tot = 1
		}
		dom, _ := u.DominantStall()
		domStr := "-"
		if dom != trace.CauseNone {
			domStr = dom.String()
		}
		t.Add(u.Name, u.Origin, u.Kind,
			stats.Pct(float64(u.Busy)/tot),
			stats.Pct(float64(u.StallTotal())/tot),
			stats.Pct(float64(u.Idle)/tot),
			fmt.Sprint(u.Stalls[trace.CauseInputStarved]),
			fmt.Sprint(u.Stalls[trace.CauseOutputBackpressure]),
			fmt.Sprint(u.Stalls[trace.CauseDRAMWait]),
			fmt.Sprint(u.Stalls[trace.CauseDrain]),
			fmt.Sprint(u.Stalls[trace.CauseReconfig]),
			fmt.Sprint(u.FIFOHighWater), domStr)
	}
	b.WriteString(t.String())
	if len(rep.Channels) > 0 {
		ct := stats.New("DRAM channels",
			"Ch", "Reads", "Writes", "Row hit%", "Conflicts", "Retries", "Max queue")
		for _, c := range rep.Channels {
			ct.Add(fmt.Sprint(c.Channel), fmt.Sprint(c.Reads), fmt.Sprint(c.Writes),
				stats.Pct(c.RowHitRate), fmt.Sprint(c.RowConflicts),
				fmt.Sprint(c.Retries), fmt.Sprint(c.MaxQueueOcc))
		}
		b.WriteString("\n")
		b.WriteString(ct.String())
	}
	if len(rep.Links) > 0 {
		lt := stats.New("Busiest links (vector network)", "Link", "Routes", "Bytes", "Util%")
		for i, l := range rep.Links {
			if i == maxLinksShown {
				break
			}
			lt.Add(l.Name, fmt.Sprint(l.Routes), fmt.Sprint(l.Bytes), stats.Pct(l.Util))
		}
		b.WriteString("\n")
		b.WriteString(lt.String())
	}
	if len(rep.Windows) > 0 {
		var cycles int64
		for _, w := range rep.Windows {
			cycles += w.To - w.From
		}
		fmt.Fprintf(&b, "\nrecovery windows: %d covering %d cycles\n", len(rep.Windows), cycles)
	}
	fmt.Fprintf(&b, "\nbottleneck: %s — %s\n", rep.Bottleneck, rep.BottleneckWhy)
	return b.String()
}

// FormatPatternProfile renders the source-level profile: one row per pattern
// node (origin), with the node's exclusive share of the makespan from the
// timeline sweep. The Cycles column plus the recovery and idle rows sum
// exactly to the makespan, so the table reads as "where did the time go" in
// the program's own vocabulary.
func FormatPatternProfile(pr *trace.PatternReport) string {
	var b strings.Builder
	t := stats.New(fmt.Sprintf("Profile by pattern: %s (%d cycles)", pr.Benchmark, pr.TotalCycles),
		"Pattern node", "Units", "Cycles", "Share", "Of which busy", "Of which stalled",
		"Unit busy", "Unit stalls", "Dominant stall")
	tot := float64(pr.TotalCycles)
	if tot == 0 {
		tot = 1
	}
	for i := range pr.Rows {
		r := &pr.Rows[i]
		dom, _ := r.DominantStall()
		domStr := "-"
		if dom != trace.CauseNone {
			domStr = dom.String()
		}
		t.Add(r.Origin, fmt.Sprint(r.Units),
			fmt.Sprint(r.Attributed), stats.Pct(float64(r.Attributed)/tot),
			fmt.Sprint(r.AttrBusy), fmt.Sprint(r.AttrStall),
			fmt.Sprint(r.Busy), fmt.Sprint(r.StallTotal()), domStr)
	}
	if pr.Recovery > 0 {
		t.Add("(recovery)", "-", fmt.Sprint(pr.Recovery),
			stats.Pct(float64(pr.Recovery)/tot), "-", "-", "-", "-", "-")
	}
	t.Add("(idle)", "-", fmt.Sprint(pr.Idle),
		stats.Pct(float64(pr.Idle)/tot), "-", "-", "-", "-", "-")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nattributed %d + recovery %d + idle %d = %d cycles (makespan %d)\n",
		pr.AttributedTotal()-pr.Recovery-pr.Idle, pr.Recovery, pr.Idle,
		pr.AttributedTotal(), pr.TotalCycles)
	return b.String()
}

// BenchSchema versions the BENCH_sim.json document (see EXPERIMENTS.md).
const BenchSchema = "plasticine-bench-sim/v1"

// BenchSim is one benchmark's simulator-throughput measurement.
type BenchSim struct {
	Benchmark      string  `json:"benchmark"`
	Cycles         int64   `json:"cycles"`
	SimWallSeconds float64 `json:"sim_wall_seconds"`
	CyclesPerSec   float64 `json:"cycles_per_second"`
}

// BenchFile is the BENCH_sim.json document: a schema tag plus one entry per
// benchmark.
type BenchFile struct {
	Schema  string     `json:"schema"`
	Results []BenchSim `json:"results"`
}

// BenchJSON serialises results as the versioned BENCH_sim.json document.
func BenchJSON(results []BenchSim) ([]byte, error) {
	return json.MarshalIndent(BenchFile{Schema: BenchSchema, Results: results}, "", "  ")
}

// FormatBench renders bench results as a table.
func FormatBench(results []BenchSim) string {
	t := stats.New("Simulator throughput", "Benchmark", "Cycles", "Wall s", "Cycles/s")
	for _, r := range results {
		t.Add(r.Benchmark, fmt.Sprint(r.Cycles),
			fmt.Sprintf("%.3f", r.SimWallSeconds), fmt.Sprintf("%.0f", r.CyclesPerSec))
	}
	return t.String()
}
