package experiments

import (
	"fmt"

	"pvsim/internal/memsys"
	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/workloads"
)

func init() {
	register(Experiment{ID: "fig6", Title: "Increase of L2 requests due to virtualization", Run: fig6})
	register(Experiment{ID: "fig7", Title: "Off-chip bandwidth impact of virtualization", Run: fig7})
	register(Experiment{ID: "fig8", Title: "Off-chip traffic increase split into application vs PV data", Run: fig8})
}

// pvComparison runs the non-virtualized SMS 1K-11a reference plus PV-8,
// PV-16 and PV-32 for every workload (functional), shared across Figures
// 6–8 via the runner cache. PV-32 covers §4.3's "increasing the number of
// sets to 32" remark.
func pvComparison(r *Runner) [][]sim.Result {
	var bases []sim.Config
	for _, w := range workloads.All() {
		bases = append(bases, r.baseConfig(w))
	}
	return r.runEach(bases, sim.SMS1K11, sim.PV8, sim.PV16, sim.SMSVirtualizedSized(32))
}

func relIncrease(after, before uint64) float64 {
	if before == 0 {
		return 0
	}
	return (float64(after) - float64(before)) / float64(before)
}

// Fig6Row is one workload's L2-request increase over SMS 1K-11a for each
// virtualized PHT size.
type Fig6Row struct {
	Workload        string
	PV8, PV16, PV32 float64
}

func fig6Rows(r *Runner) []Fig6Row {
	var rows []Fig6Row
	for _, res := range pvComparison(r) {
		ref := res[0].Mem.L2RequestsTotal()
		rows = append(rows, Fig6Row{res[0].Config.Workload.Name,
			relIncrease(res[1].Mem.L2RequestsTotal(), ref),
			relIncrease(res[2].Mem.L2RequestsTotal(), ref),
			relIncrease(res[3].Mem.L2RequestsTotal(), ref)})
	}
	return rows
}

func fig6(r *Runner) *report.Doc {
	t := report.NewTable("Workload", "PV-8", "PV-16", "PV-32", "L2 request increase (scale 50%)")
	var inc8s []float64
	for _, row := range fig6Rows(r) {
		inc8s = append(inc8s, row.PV8)
		t.AddRow(row.Workload, fmtPct(row.PV8), fmtPct(row.PV16), fmtPct(row.PV32), report.Bar(row.PV8, 0.5, 40))
	}
	t.AddRow("AVG", fmtPct(avg(inc8s)), "", "", "")

	doc := &report.Doc{ID: "fig6", Title: "Increase of L2 memory requests due to virtualization (Figure 6)"}
	doc.Add(report.Section{
		Table: t,
		Body: "Relative to the non-virtualized SMS 1K-11a configuration.\n" +
			"Paper: 25%–44% for PV-8, average 33%; PV-16 not noticeably different; only Qry1/Qry16\n" +
			"gain >5% from 32 sets.",
	})
	return doc
}

// OffChip is one virtualized predictor's off-chip traffic against the SMS
// 1K-11a reference on the same L2: the relative increase in L2 misses
// (off-chip reads), in writebacks, and in their sum.
type OffChip struct {
	Label                     string
	L2Bytes                   int // total shared L2 capacity
	Misses, Writebacks, Total float64
}

// OffChipRow is one workload of Figure 7 or 10: one OffChip per L2 size,
// ascending, and per predictor within a size.
type OffChipRow struct {
	Workload string
	Cells    []OffChip
}

// offChipRows runs SMS 1K-11a and each virtualized predictor on every
// workload at each total L2 size.
func offChipRows(r *Runner, sizes []int, pvs ...sim.PrefetcherConfig) []OffChipRow {
	var bases []sim.Config
	for _, w := range workloads.All() {
		for _, size := range sizes {
			c := r.baseConfig(w)
			c.Hier.L2.SizeBytes = size
			bases = append(bases, c)
		}
	}
	traffic := func(res sim.Result) (reads, writes uint64) {
		return res.Mem.OffChipReads[memsys.ClassApp] + res.Mem.OffChipReads[memsys.ClassPV],
			res.Mem.OffChipWrites[memsys.ClassApp] + res.Mem.OffChipWrites[memsys.ClassPV]
	}
	var rows []OffChipRow
	for i, res := range r.runEach(bases, append([]sim.PrefetcherConfig{sim.SMS1K11}, pvs...)...) {
		if i%len(sizes) == 0 {
			rows = append(rows, OffChipRow{Workload: res[0].Config.Workload.Name})
		}
		row := &rows[len(rows)-1]
		refReads, refWrites := traffic(res[0])
		for _, pv := range res[1:] {
			reads, writes := traffic(pv)
			row.Cells = append(row.Cells, OffChip{
				Label:      pv.Config.Prefetch.Label(),
				L2Bytes:    pv.Config.Hier.L2.SizeBytes,
				Misses:     relIncrease(reads, refReads),
				Writebacks: relIncrease(writes, refWrites),
				Total:      relIncrease(reads+writes, refReads+refWrites),
			})
		}
	}
	return rows
}

func fig7Rows(r *Runner) []OffChipRow {
	return offChipRows(r, []int{memsys.DefaultConfig().L2.SizeBytes}, sim.PV8, sim.PV16)
}

func fig7(r *Runner) *report.Doc {
	t := report.NewTable("Workload", "Config", "ΔL2 misses", "ΔL2 writebacks", "ΔOff-chip total")
	for _, row := range fig7Rows(r) {
		for _, c := range row.Cells {
			t.AddRow(row.Workload, c.Label, fmtPct(c.Misses), fmtPct(c.Writebacks), fmtPct(c.Total))
		}
	}

	doc := &report.Doc{ID: "fig7", Title: "Impact of virtualization on off-chip bandwidth (Figure 7)"}
	doc.Add(report.Section{
		Table: t,
		Body: "Paper: L2 miss increase <1% for five of eight workloads, <3% for the rest; writeback\n" +
			"increase at most 3.2% (Zeus); average off-chip bandwidth increase 3.3%, max 6.5% (Zeus).",
	})
	return doc
}

// Fig8Row is one workload's PV-8 off-chip traffic split by data class,
// each relative to the SMS 1K-11a reference's application-data count, and
// the fraction of PVProxy fetches the L2 filled.
type Fig8Row struct {
	Workload                                         string
	AppMisses, PVMisses, AppWritebacks, PVWritebacks float64
	L2Fill                                           float64
}

func fig8Rows(r *Runner) []Fig8Row {
	var rows []Fig8Row
	for _, res := range pvComparison(r) {
		ref, pv8 := res[0].Mem, res[1].Mem
		pvWrites := 0.0
		if ref.OffChipWrites[memsys.ClassApp] > 0 {
			pvWrites = float64(pv8.OffChipWrites[memsys.ClassPV]) / float64(ref.OffChipWrites[memsys.ClassApp])
		}
		proxy := res[1].ProxyTotals()
		rows = append(rows, Fig8Row{res[0].Config.Workload.Name,
			relIncrease(pv8.OffChipReads[memsys.ClassApp], ref.OffChipReads[memsys.ClassApp]),
			float64(pv8.OffChipReads[memsys.ClassPV]) / float64(ref.OffChipReads[memsys.ClassApp]),
			relIncrease(pv8.OffChipWrites[memsys.ClassApp], ref.OffChipWrites[memsys.ClassApp]),
			pvWrites,
			proxy.L2FillRate()})
	}
	return rows
}

func fig8(r *Runner) *report.Doc {
	t := report.NewTable("Workload", "ΔMisses app", "ΔMisses PV", "ΔWB app", "ΔWB PV", "PVProxy L2-fill")
	var appMiss []float64
	var fills []float64
	for _, row := range fig8Rows(r) {
		appMiss = append(appMiss, row.AppMisses)
		fills = append(fills, row.L2Fill)
		t.AddRow(row.Workload, fmtPct(row.AppMisses), fmtPct(row.PVMisses), fmtPct(row.AppWritebacks), fmtPct(row.PVWritebacks),
			fmt.Sprintf("%.1f%%", row.L2Fill*100))
	}
	t.AddRow("AVG", fmtPct(avg(appMiss)), "", "", "", fmt.Sprintf("%.1f%%", avg(fills)*100))

	doc := &report.Doc{ID: "fig8", Title: "Off-chip increase split into application and PV data, PV-8 (Figure 8)"}
	doc.Add(report.Section{
		Table: t,
		Body: "Deltas are relative to the SMS 1K-11a reference's app-data misses/writebacks.\n" +
			"Paper: app-data miss increase <2.5% everywhere (avg 1%): PV entries cached in L2 do not\n" +
			"pollute. >98% of PVProxy requests are filled by the L2 (predictor entries stay hot on chip).",
	})
	return doc
}
