package experiments

import (
	"fmt"

	"pvsim/internal/memsys"
	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/workloads"
)

func init() {
	register(Experiment{ID: "fig4", Title: "SMS performance potential vs predictor table size", Run: fig4})
	register(Experiment{ID: "fig5", Title: "SMS potential, intermediate table sizes (representative workloads)", Run: fig5})
}

// CoverageRow is one workload of a coverage sweep (Figures 4 and 5): its
// no-prefetch baseline and each prefetcher's coverage against it.
type CoverageRow struct {
	Workload string
	MissRate float64        // baseline L1D read misses per L1D read
	L2Hit    float64        // baseline fraction of L2 loads that hit
	Cov      []sim.Coverage // one per prefetcher, in the order asked
}

// coverageRows runs baseline + each prefetcher config for each workload.
func coverageRows(r *Runner, ws []workloads.Workload, pcs []sim.PrefetcherConfig) []CoverageRow {
	var bases []sim.Config
	for _, w := range ws {
		bases = append(bases, r.baseConfig(w))
	}
	var rows []CoverageRow
	for _, res := range r.runEach(bases, append([]sim.PrefetcherConfig{sim.Baseline}, pcs...)...) {
		base := res[0]
		row := CoverageRow{
			Workload: base.Config.Workload.Name,
			MissRate: float64(base.L1DReadMisses()) / float64(base.L1DReads()),
			L2Hit:    float64(base.Mem.L2Hits[memsys.Load]) / float64(base.Mem.L2Requests[memsys.Load]),
		}
		for _, run := range res[1:] {
			row.Cov = append(row.Cov, sim.CoverageOf(base, run))
		}
		rows = append(rows, row)
	}
	return rows
}

// renderCoverage draws the Figure 4/5 covered/uncovered/overpredicted bars.
func renderCoverage(id, title string, rows []CoverageRow, note string) *report.Doc {
	t := report.NewTable("Workload", "PHT", "Covered", "Uncovered", "Overpred", "L1 read misses (base=100%)")
	for _, row := range rows {
		for _, cov := range row.Cov {
			bar := report.StackedBar(1.4, 56, []float64{cov.Covered, cov.Uncovered, cov.Overpredicted}, []rune{'#', ' ', 'o'})
			t.AddRow(row.Workload, cov.Label, report.Pct(cov.Covered), report.Pct(cov.Uncovered), report.Pct(cov.Overpredicted), bar)
		}
	}

	doc := &report.Doc{ID: id, Title: title}
	doc.Add(report.Section{
		Table: t,
		Body: "Bars are fractions of the no-prefetch baseline's L1 read misses, full scale 140%:\n" +
			"'#' covered (eliminated), ' ' uncovered (remaining), 'o' overpredictions (prefetched, never used).\n" + note,
	})
	return doc
}

func fig4Rows(r *Runner) []CoverageRow {
	return coverageRows(r, workloads.All(), []sim.PrefetcherConfig{sim.SMSInfinite, sim.SMS1K16, sim.SMS1K11, sim.SMS16, sim.SMS8})
}

func fig4(r *Runner) *report.Doc {
	return renderCoverage("fig4", "SMS performance potential (Figure 4)", fig4Rows(r),
		"Paper shape: large tables (Infinite/1K) far outperform 16/8-set tables; 1K-11a within 3% of\n"+
			"Infinite everywhere; Oracle collapses from 44% to <4% at 8 sets; Qry1 only drops 73%->62%.")
}

func fig5Rows(r *Runner) []CoverageRow {
	var ws []workloads.Workload
	for _, name := range []string{"Apache", "Oracle", "Qry17"} {
		w, err := workloads.ByName(name)
		if err != nil {
			panic(err)
		}
		ws = append(ws, w)
	}
	pcs := []sim.PrefetcherConfig{sim.SMSInfinite, sim.SMS1K16, sim.SMS1K11}
	for _, sets := range []int{512, 256, 128, 64, 32, 16, 8} {
		pcs = append(pcs, sim.DedicatedSized(sets))
	}
	return coverageRows(r, ws, pcs)
}

func fig5(r *Runner) *report.Doc {
	return renderCoverage("fig5", "SMS potential, representative behaviour (Figure 5)", fig5Rows(r),
		"Paper shape: every workload loses coverage as sets shrink, along workload-specific curves.")
}

// avg is a tiny helper for summary rows.
func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func fmtPct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }
