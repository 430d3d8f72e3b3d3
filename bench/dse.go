package bench

import (
	"context"
	"strings"

	"plasticine/internal/core"
	"plasticine/internal/dse"
)

// dseOps are one dse-sweep pass: Table 3, the six Figure 7 panels, Table 6
// and the PMU:PCU ratio study.
// Each op's layer names the span a traced pass records around it.
var dseOps = []struct{ name, layer string }{
	{"table3", "dse.table3"},
	{"fig7a", "dse.fig7"}, {"fig7b", "dse.fig7"}, {"fig7c", "dse.fig7"},
	{"fig7d", "dse.fig7"}, {"fig7e", "dse.fig7"}, {"fig7f", "dse.fig7"},
	{"table6", "dse.table6"},
	{"ratios", "dse.ratios"},
}

// dseInstance runs the sweeps in paper order on a fresh single-worker
// Session per pass. The seed plays no part: the sweeps share one cache, so
// their order decides which sweep pays for the shared design points, and a
// fixed order keeps each op's latency comparable from seed to seed.
type dseInstance struct{}

func openDSE(int64) (instance, error) { return dseInstance{}, nil }

func (dseInstance) close() {}

func (dseInstance) pass(p *pass) error {
	sess := core.NewSession(core.WithWorkers(1))
	for _, sw := range dseOps {
		name := sw.name
		p.settle()
		p.op(sw.layer, name, func(*op) error {
			text, err := dseRender(context.Background(), sess, name)
			if err != nil {
				return err
			}
			return p.chk.check(goldenKey("dse-sweep", -1, name), Identity{Hash: hashText(text)})
		})
	}
	st := sess.CacheStats()
	p.add("dse.points", float64(st.Misses))
	p.add("exec.hits", float64(st.Hits))
	p.add("exec.misses", float64(st.Misses))
	return nil
}

// dseRender runs one sweep and renders it as the CLI prints it.
func dseRender(ctx context.Context, sess *core.Session, name string) (string, error) {
	switch name {
	case "table3":
		rows, err := sess.Table3(ctx)
		if err != nil {
			return "", err
		}
		return dse.FormatTable3(rows), nil
	case "table6":
		rows, err := sess.Table6(ctx)
		if err != nil {
			return "", err
		}
		return dse.FormatTable6(rows), nil
	case "ratios":
		rows, err := sess.RatioStudy(ctx)
		if err != nil {
			return "", err
		}
		return dse.FormatRatios(rows), nil
	default: // fig7a..fig7f
		panel, err := sess.Figure7(ctx, strings.TrimPrefix(name, "fig7"))
		if err != nil {
			return "", err
		}
		return panel.Format(), nil
	}
}
