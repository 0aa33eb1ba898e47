package experiments

import (
	"fmt"

	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/sms"
	"pvsim/internal/stride"
	"pvsim/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "stride",
		Title: "Stride prefetcher baseline and its virtualization (intro discussion, §6 generality)",
		Run:   strideExp,
	})
}

// strideExp compares the shipped-hardware-style stride prefetcher against
// SMS, and shows PV working identically for both: the paper's intro notes
// only the simplest prefetchers get built, and §6 predicts PV generalizes
// beyond SMS.
func strideExp(r *Runner) *report.Doc {
	pcs := []sim.PrefetcherConfig{sim.StrideLarge, sim.StridePV8, sim.SMS1K11, sim.PV8}
	rows := coverageRows(r, workloads.All(), pcs)
	t := report.NewTable("Workload", "stride-1K", "stride-PV8", "SMS 1K-11a", "SMS PV-8")
	sums := make([]float64, len(pcs))
	for _, c := range rows {
		row := []string{c.Workload}
		for j, cov := range c.Cov {
			sums[j] += cov.Covered
			row = append(row, fmtPct(cov.Covered))
		}
		t.AddRow(row...)
	}
	avgRow := []string{"AVG"}
	for _, sum := range sums {
		avgRow = append(avgRow, fmtPct(sum/float64(len(rows))))
	}
	t.AddRow(avgRow...)

	dedCost := stride.DefaultConfig(1024).StorageBytes()
	smsCost := sms.Storage(sms.DefaultGeometry(), 1024, 11).TotalBytes
	doc := &report.Doc{ID: "stride", Title: "Stride baseline vs SMS, dedicated vs virtualized"}
	doc.Add(report.Section{
		Table: t,
		Body: fmt.Sprintf(
			"Coverage of baseline L1 read misses. Stride (the style of prefetcher hardware actually\n"+
				"ships, cf. the paper's intro and POWER4 [28]) misses the irregular spatial patterns SMS\n"+
				"captures. Virtualization preserves each predictor's behaviour: stride-PV8 tracks\n"+
				"stride-1K and SMS PV-8 tracks SMS 1K-11a, at <1KB on-chip each (dedicated costs:\n"+
				"stride %s, SMS PHT %s).",
			sms.KB(dedCost), sms.KB(smsCost)),
	})
	return doc
}
