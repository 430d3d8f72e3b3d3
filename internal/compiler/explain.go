package compiler

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"plasticine/internal/arch"
	"plasticine/internal/dhdl"
	"plasticine/internal/fault"
	"plasticine/internal/metrics"
	"plasticine/internal/stats"
)

// OriginDemand is the physical-unit demand one source-level origin places on
// the resource that ran out.
type OriginDemand struct {
	Origin string   // pattern node / controller provenance
	Units  int      // physical units of the short resource this origin needs
	Names  []string // virtual units behind the demand (for drill-down)
}

// Explanation is the structured fit report of a program against a parameter
// set: either "it fits" with utilization, or a named failure with the source
// nodes that caused it, ranked by demand. It never panics and is produced
// even when compilation fails — it exists to turn a bare ErrInsufficient or
// ErrNoRoute into something a pattern author can act on.
type Explanation struct {
	Program string
	Fits    bool
	Err     string `json:",omitempty"` // failure message when !Fits

	// Set when the failure wraps ErrInsufficient.
	Resource  string         `json:",omitempty"` // "PCU", "PMU", or "AG"
	Need      int            `json:",omitempty"`
	Have      int            `json:",omitempty"`
	Disabled  int            `json:",omitempty"`
	Offenders []OriginDemand `json:",omitempty"` // demand per origin, descending

	// Set when the failure wraps ErrNoRoute.
	RouteFrom       string `json:",omitempty"`
	RouteTo         string `json:",omitempty"`
	RouteFromOrigin string `json:",omitempty"`
	RouteToOrigin   string `json:",omitempty"`

	// Util is the fabric occupancy when the program fits.
	Util *Utilization `json:",omitempty"`
	// Compile is the compile's span tree: one child per pass that ran,
	// including the failing one.
	Compile *metrics.Span `json:",omitempty"`
}

// Explain compiles a program and reports, in source-level terms, whether it
// fits the fabric described by params (under an optional fault plan) and —
// when it does not — which pattern nodes demanded the resource that ran out.
// A compile that ctx cancels is not a fit answer: it returns an error
// wrapping ctx.Err() instead of an explanation.
func Explain(ctx context.Context, p *dhdl.Program, params arch.Params, plan *fault.Plan) (*Explanation, error) {
	ex := &Explanation{Program: p.Name}
	ctx, sp := metrics.Start(ctx, "compile")
	m, err := pipeline(ctx, p, Options{Params: params, Faults: plan})
	sp.EndWith(p.Name, nil, err)
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return nil, err
	}
	ex.Compile = sp.Snapshot()
	if err == nil {
		ex.Fits = true
		ex.Util = &m.Util
		return ex, nil
	}
	ex.Err = err.Error()

	var ins *InsufficientError
	if errors.As(err, &ins) {
		ex.Resource = ins.Resource
		ex.Need, ex.Have, ex.Disabled = ins.Need, ins.Have, ins.Disabled
		ex.Offenders = originDemand(p, params, ins.Resource)
	}
	var nr *NoRouteError
	if errors.As(err, &nr) {
		ex.RouteFrom, ex.RouteTo = nr.From, nr.To
		ex.RouteFromOrigin, ex.RouteToOrigin = nr.FromOrigin, nr.ToOrigin
	}
	return ex, nil
}

// originDemand recomputes the virtual/partitioned view (which must have
// succeeded for a fit or placement failure to be reachable) and aggregates
// the short resource's demand per origin, descending. It returns nil when
// the earlier passes cannot be replayed.
func originDemand(p *dhdl.Program, params arch.Params, resource string) []OriginDemand {
	v, err := Allocate(p)
	if err != nil {
		return nil
	}
	part, err := Partition(v, params)
	if err != nil {
		return nil
	}
	acc := map[string]*OriginDemand{}
	add := func(origin, name string, units int) {
		if units <= 0 {
			return
		}
		d, ok := acc[origin]
		if !ok {
			d = &OriginDemand{Origin: origin}
			acc[origin] = d
		}
		d.Units += units
		d.Names = append(d.Names, name)
	}
	switch resource {
	case "PCU":
		for _, pc := range part.PCUs {
			add(pc.V.Origin, pc.V.Name, pc.Units())
		}
		for _, pm := range part.PMUs {
			// Address-datapath overflow consumes PCUs on behalf of a memory.
			add(pm.V.Origin, pm.V.Name+" (addr support)", pm.SupportPCUs*pm.V.Unroll)
		}
	case "PMU":
		for _, pm := range part.PMUs {
			add(pm.V.Origin, pm.V.Name, pm.Units())
		}
	case "AG":
		for _, ag := range v.AGs {
			add(ag.Origin, ag.Name, ag.Unroll)
		}
	}
	out := make([]OriginDemand, 0, len(acc))
	for _, d := range acc {
		sort.Strings(d.Names)
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Units != out[j].Units {
			return out[i].Units > out[j].Units
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// String renders the explanation for terminals.
func (ex *Explanation) String() string {
	var b strings.Builder
	if ex.Fits {
		fmt.Fprintf(&b, "%s: fits", ex.Program)
		if ex.Util != nil {
			fmt.Fprintf(&b, " (PCU %.1f%%, PMU %.1f%%, AG %.1f%%)",
				100*ex.Util.PCUFrac, 100*ex.Util.PMUFrac, 100*ex.Util.AGFrac)
		}
		b.WriteByte('\n')
	} else {
		fmt.Fprintf(&b, "%s: does not fit: %s\n", ex.Program, ex.Err)
		if ex.Resource != "" {
			shortfall := ex.Need - ex.Have
			fmt.Fprintf(&b, "  short %d %s(s): need %d, have %d healthy", shortfall, ex.Resource, ex.Need, ex.Have)
			if ex.Disabled > 0 {
				fmt.Fprintf(&b, " (%d disabled by faults)", ex.Disabled)
			}
			b.WriteByte('\n')
		}
		if len(ex.Offenders) > 0 {
			t := stats.New(fmt.Sprintf("%s demand by source node", ex.Resource),
				"Origin", ex.Resource+"s", "Share", "Units")
			for _, d := range ex.Offenders {
				names := strings.Join(d.Names, ", ")
				if len(names) > 48 {
					names = names[:45] + "..."
				}
				t.Add(d.Origin, fmt.Sprint(d.Units),
					stats.Pct(float64(d.Units)/float64(ex.Need)), names)
			}
			b.WriteString(t.String())
		}
		if ex.RouteFrom != "" {
			fmt.Fprintf(&b, "  unroutable edge: %s (from %s) -> %s (from %s)\n",
				ex.RouteFrom, ex.RouteFromOrigin, ex.RouteTo, ex.RouteToOrigin)
		}
	}
	if ex.Compile != nil {
		b.WriteString(FormatPasses(ex.Compile))
	}
	return b.String()
}
