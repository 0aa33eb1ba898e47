package experiments

import (
	"fmt"

	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/stats"
	"pvsim/internal/workloads"
)

func init() {
	register(Experiment{ID: "calib", Title: "Calibration dashboard: per-workload figure numbers side by side", Run: calib})
}

// calib renders the dashboard used to tune the synthetic workloads against
// the paper: per workload, the baseline miss rate and L2 hit fraction,
// Figure 4's coverage points plus PV-8's, Figure 6's PV-8 L2-request
// increase, Figure 8's PVProxy L2-fill rate and Figure 9's speedups for
// SMS 1K-11a and PV-8. Every cell is read from those figures' rows, so
// after fig4, fig6, fig8 and fig9 it simulates nothing.
func calib(r *Runner) *report.Doc {
	cov := coverageRows(r, workloads.All(), []sim.PrefetcherConfig{sim.SMSInfinite, sim.SMS1K11, sim.SMS16, sim.SMS8, sim.PV8})
	l2req, fill := fig6Rows(r), fig8Rows(r)
	spd := speedupRows(r, []sim.PrefetcherConfig{sim.SMS1K11, sim.PV8}, nil)

	t := report.NewTable("Workload", "missRate", "L2hit",
		"Inf cov/ovr", "1K-11", "16-11", "8-11", "PV-8",
		"ΔL2req", "L2fill", "spd 1K", "spd PV8")
	for i, c := range cov {
		row := []string{c.Workload, fmt.Sprintf("%.3f", c.MissRate), fmt.Sprintf("%.2f", c.L2Hit)}
		for _, cv := range c.Cov {
			row = append(row, fmt.Sprintf("%.1f/%.1f", cv.Covered*100, cv.Overpredicted*100))
		}
		row = append(row, fmt.Sprintf("%.1f%%", l2req[i].PV8*100), fmt.Sprintf("%.2f", fill[i].L2Fill))
		for _, iv := range spd[i].Speedups {
			if iv.N == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, stats.Percent(iv.Mean))
			}
		}
		t.AddRow(row...)
	}

	doc := &report.Doc{ID: "calib", Title: "Calibration dashboard"}
	doc.Add(report.Section{Table: t, Body: "cov/ovr = % of baseline L1 read misses covered / overpredicted"})
	return doc
}
