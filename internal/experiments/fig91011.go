package experiments

import (
	"fmt"

	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/stats"
	"pvsim/internal/workloads"
)

func init() {
	register(Experiment{ID: "fig9", Title: "Performance of the virtualized predictor", Run: fig9})
	register(Experiment{ID: "fig10", Title: "Off-chip bandwidth increase vs L2 cache size", Run: fig10})
	register(Experiment{ID: "fig11", Title: "Performance with increased L2 latency", Run: fig11})
}

// SpeedupRow is one workload's matched-pair speedup over the no-prefetch
// timing baseline, one per prefetcher in the order asked. An interval with
// N == 0 marks a pair sim.SpeedupOver rejected.
type SpeedupRow struct {
	Workload string
	Speedups []stats.Interval
}

// speedupRows runs the timing baseline plus each prefetcher per workload,
// with mutate (when non-nil) applied to the baseline first.
func speedupRows(r *Runner, pcs []sim.PrefetcherConfig, mutate func(*sim.Config)) []SpeedupRow {
	var bases []sim.Config
	for _, w := range workloads.All() {
		c := r.timingConfig(w)
		if mutate != nil {
			mutate(&c)
		}
		bases = append(bases, c)
	}
	var rows []SpeedupRow
	for _, res := range r.runEach(bases, append([]sim.PrefetcherConfig{sim.Baseline}, pcs...)...) {
		row := SpeedupRow{Workload: res[0].Config.Workload.Name, Speedups: make([]stats.Interval, len(pcs))}
		for j, run := range res[1:] {
			row.Speedups[j], _ = sim.SpeedupOver(res[0], run) // a rejected pair leaves N == 0
		}
		rows = append(rows, row)
	}
	return rows
}

// renderSpeedup tabulates speedup rows with their 95% CIs and an average
// per prefetcher.
func renderSpeedup(id, title string, pcs []sim.PrefetcherConfig, rows []SpeedupRow, note string) *report.Doc {
	headers := []string{"Workload"}
	for _, pc := range pcs {
		headers = append(headers, "SMS-"+pc.Label())
	}
	t := report.NewTable(headers...)
	sums := make([]float64, len(pcs))
	for _, sr := range rows {
		row := []string{sr.Workload}
		for j, iv := range sr.Speedups {
			if iv.N == 0 {
				row = append(row, "n/a")
				continue
			}
			sums[j] += iv.Mean
			row = append(row, fmt.Sprintf("%s ±%.1f", stats.Percent(iv.Mean), iv.Half*100))
		}
		t.AddRow(row...)
	}
	row := []string{"AVG"}
	for j := range pcs {
		row = append(row, stats.Percent(sums[j]/float64(len(rows))))
	}
	t.AddRow(row...)

	doc := &report.Doc{ID: id, Title: title}
	doc.Add(report.Section{
		Table: t,
		Body:  "Speedup over the no-prefetch baseline; matched-pair 95% CIs over sampling windows.\n" + note,
	})
	return doc
}

var (
	fig9Prefetchers  = []sim.PrefetcherConfig{sim.SMS1K11, sim.SMS16, sim.SMS8, sim.PV8}
	fig11Prefetchers = []sim.PrefetcherConfig{sim.SMS1K11, sim.PV8}
)

func fig9Rows(r *Runner) []SpeedupRow { return speedupRows(r, fig9Prefetchers, nil) }

func fig9(r *Runner) *report.Doc {
	return renderSpeedup("fig9", "Performance of the virtualized predictor (Figure 9)", fig9Prefetchers, fig9Rows(r),
		"Paper: SMS-1K improves 19% on average, PV-8 18% (virtually identical); the small dedicated\n"+
			"tables reach only about half; Apache gains nothing from small tables; Oracle: 6.7% vs 4.2%.")
}

// fig11Rows runs Figure 9's timing on an L2 with 8-cycle tags and 16-cycle
// data.
func fig11Rows(r *Runner) []SpeedupRow {
	return speedupRows(r, fig11Prefetchers, func(c *sim.Config) {
		c.Hier.L2.TagLatency = 8
		c.Hier.L2.DataLatency = 16
	})
}

func fig11(r *Runner) *report.Doc {
	return renderSpeedup("fig11", "Performance with increased L2 latency (Figure 11)", fig11Prefetchers, fig11Rows(r),
		"Paper: with 8/16-cycle L2 tag/data latency, SMS-1K and SMS-PV8 differ by <1.5% on average.")
}

func fig10Rows(r *Runner) []OffChipRow {
	return offChipRows(r, []int{2 << 20, 4 << 20, 8 << 20}, sim.PV8)
}

func fig10(r *Runner) *report.Doc {
	t := report.NewTable("Workload", "L2 total", "ΔL2 misses", "ΔWritebacks", "ΔOff-chip", "increase (scale 40%)")
	for _, row := range fig10Rows(r) {
		for _, c := range row.Cells {
			t.AddRow(row.Workload, fmt.Sprintf("%dMB", c.L2Bytes>>20),
				fmtPct(c.Misses), fmtPct(c.Writebacks), fmtPct(c.Total), report.Bar(c.Total, 0.4, 32))
		}
	}

	doc := &report.Doc{ID: "fig10", Title: "Off-chip bandwidth increase vs L2 size (Figure 10)"}
	doc.Add(report.Section{
		Table: t,
		Body: "PV-8 vs SMS 1K-11a at each L2 capacity.\n" +
			"Paper: PV interferes less as L2 capacity grows; interference is minimal at 8MB total.",
	})
	return doc
}
