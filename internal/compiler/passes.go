package compiler

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"plasticine/internal/metrics"
	"plasticine/internal/stats"
)

// FormatPasses renders a span tree as the pass table: one row per span
// below root, depth first in start order and indented by depth, with its
// wall time and one-line summary; then one line of sorted stats per span
// that has any. Render a Snapshot. Explain's tree is its compile span, a
// profile's the whole evaluation (build, compile, sim with any repair under
// it, check).
func FormatPasses(root *metrics.Span) string {
	if root == nil || len(root.Children) == 0 {
		return "passes: empty\n"
	}
	t := stats.New(fmt.Sprintf("%s passes: %s (%.2f ms total)",
		root.Name, root.Detail, root.DurUS/1e3), "Pass", "Wall", "Detail")
	var withStats []*metrics.Span
	for _, top := range root.Children {
		top.Walk(func(sp *metrics.Span, depth int) {
			detail := sp.Detail
			if sp.Err != "" {
				detail = "FAILED: " + sp.Err
			}
			t.Add(strings.Repeat("  ", depth)+sp.Name, fmtNS(int64(math.Round(sp.DurUS*1e3))), detail)
			if len(sp.Stats) > 0 {
				withStats = append(withStats, sp)
			}
		})
	}
	var b strings.Builder
	b.WriteString(t.String())
	for _, sp := range withStats {
		keys := make([]string, 0, len(sp.Stats))
		for k := range sp.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "  %s:", sp.Name)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, sp.Stats[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

// histInto records value v into bucketed keys "<metric>[<b>]" in st, with an
// overflow bucket "<metric>[>=<cap>]" so histograms stay bounded.
func histInto(st map[string]int64, metric string, v, cap int) {
	if v >= cap {
		st[fmt.Sprintf("%s[>=%d]", metric, cap)]++
		return
	}
	st[fmt.Sprintf("%s[%d]", metric, v)]++
}

// placeStats summarises a finished placement: the wirelength estimate (sum
// of Manhattan distances over unique netlist edges), the worst single edge,
// and an edge-length histogram — the "displacement" cost the greedy placer
// left on the table.
func placeStats(nl *Netlist) map[string]int64 {
	st := map[string]int64{"nodes": int64(len(nl.Nodes))}
	var wire, worst int64
	edges := 0
	for i, nd := range nl.Nodes {
		for _, j := range nd.Edges {
			if j < i {
				continue
			}
			d := int64(RouteHops(nd, nl.Nodes[j]))
			wire += d
			if d > worst {
				worst = d
			}
			edges++
			histInto(st, "edge_hops", int(d), 8)
		}
	}
	st["edges"] = int64(edges)
	st["wirelength"] = wire
	st["worst_edge_hops"] = worst
	return st
}

// routeStats summarises a finished routing: route-length histogram, link
// congestion, and average hops (scaled x100 to stay integral).
func routeStats(rt *RouteTable) map[string]int64 {
	st := map[string]int64{
		"routes":        int64(len(rt.Routes)),
		"links_used":    int64(len(rt.LinkUse)),
		"max_link_use":  int64(rt.MaxLinkUse()),
		"avg_hops_x100": int64(rt.AvgHops() * 100),
	}
	for _, r := range rt.Routes {
		histInto(st, "route_hops", len(r.Hops)-1, 8)
	}
	return st
}
