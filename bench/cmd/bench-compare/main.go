// Command bench-compare compares two sets of benchmark runs, for example the
// parent commit's and a change's:
//
//	bench-compare -spec BENCHMARK.json PARENT_DIR CHANGE_DIR
//
// Each directory holds the records plasticine-bench -out writes. Runs of
// the same workload, trace setting and seed form a pair. For every
// (metric, workload) it prints one row: each side's median and quartiles,
// the share of pairs the change won, and a verdict (see bench.Compare).
// End-to-end metrics use their bound from the spec; per-layer metrics have
// none, so they are judged with a bound of 0, which suits exact counts.
// The exit status is 1 if any end-to-end row is regressed or unresolved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"plasticine/bench"
)

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark's BENCHMARK.json")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench-compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		os.Exit(2)
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	parent, err := loadDir(flag.Arg(0))
	if err == nil {
		var change map[runKey]*bench.Record
		if change, err = loadDir(flag.Arg(1)); err == nil {
			os.Exit(report(spec, parent, change))
		}
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// runKey identifies a run; equal keys on the two sides form a pair.
type runKey struct {
	workload string
	trace    int
	seed     int64
}

func loadDir(dir string) (map[runKey]*bench.Record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("bench-compare: no *.json records in %s", dir)
	}
	out := map[runKey]*bench.Record{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r bench.Record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("bench-compare: %s: %w", f, err)
		}
		out[runKey{r.Workload, r.Trace, r.Seed}] = &r
	}
	return out, nil
}

// report prints the comparison table and returns the exit status.
func report(spec *bench.Spec, parent, change map[runKey]*bench.Record) int {
	var keys []runKey
	for k := range parent {
		if _, ok := change[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.seed < b.seed
	})
	if len(keys) == 0 {
		fmt.Fprintln(os.Stderr, "bench-compare: no run appears on both sides")
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median\tparent q1..q3\tchange median\tchange q1..q3\tpairs\twin rate\tverdict\t")
	status := 0
	for _, group := range groupByWorkload(keys) {
		metrics := spec.EndToEnd
		if group[0].trace == 1 {
			metrics = spec.PerLayer
		}
		for _, m := range metrics {
			var ps, cs []float64
			for _, k := range group {
				p, okp := parent[k].Metrics[m.Name]
				c, okc := change[k].Metrics[m.Name]
				if okp && okc {
					ps, cs = append(ps, p.Value), append(cs, c.Value)
				}
			}
			if len(ps) == 0 {
				continue
			}
			cmp := bench.Compare(ps, cs, m.Better != "higher", m.Bound)
			if group[0].trace == 0 && (cmp.Verdict == bench.Regressed || cmp.Verdict == bench.Unresolved) {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g..%.6g\t%.6g\t%.6g..%.6g\t%d\t%.2f\t%s\t\n",
				group[0].workload, m.Name, m.Unit,
				cmp.Parent.Median, cmp.Parent.Q1, cmp.Parent.Q3,
				cmp.Change.Median, cmp.Change.Q1, cmp.Change.Q3,
				cmp.Pairs, cmp.WinRate, cmp.Verdict)
		}
	}
	tw.Flush()
	return status
}

// groupByWorkload splits sorted keys into runs of equal workload and trace.
func groupByWorkload(keys []runKey) [][]runKey {
	var out [][]runKey
	for i, k := range keys {
		if i == 0 || k.workload != keys[i-1].workload || k.trace != keys[i-1].trace {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], k)
	}
	return out
}
