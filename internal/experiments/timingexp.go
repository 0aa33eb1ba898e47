package experiments

import (
	"fmt"

	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/timing"
	"pvsim/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "timing",
		Title: "Cycle-approximate timing: dedicated vs virtualized across PVCache sizes",
		Run:   timingExp,
	})
}

// timingPVSizes is the PVCache sweep of the timing comparison, bracketing
// the paper's final 8-entry design (§4.3 studied 8/16/32).
var timingPVSizes = []int{4, 8, 16, 32}

// timingExp is the Figures 6–8-territory performance story the functional
// experiments cannot tell: the same accesses and predictor decisions,
// folded through the cycle-approximate cost model (internal/timing), give
// per-scenario cycle counts for no-prefetch, dedicated 1K-11a, and the
// virtualized table behind PVCaches of 4–32 entries. The model is passive
// — every coverage number equals the functional runs' — so the slowdown
// columns isolate exactly what virtualization costs: PVCache miss fetches,
// MSHR occupancy stalls, and PV-induced L2 bandwidth.
//
// Scenarios are the eight Table 2 workloads plus heterogeneous mixes
// (including the scale-adaptive ctx-fast mix, so phase switching is
// costed at every scale).
func timingExp(r *Runner) *report.Doc {
	var scens []sim.Config
	for _, w := range workloads.All() {
		scens = append(scens, r.baseConfig(w))
	}
	var mixes []workloads.Mix
	for _, name := range []string{"oltp-web", "dss-oltp"} {
		m, err := workloads.MixByName(name)
		if err != nil {
			panic(err) // the named mixes are compiled in; absence is a code bug
		}
		mixes = append(mixes, m)
	}
	mixes = append(mixes, ctxFastMix(r))
	for _, m := range mixes {
		cfg, err := ConfigForMix(m, r.opts.Scale, r.opts.Seed)
		if err != nil {
			panic(err)
		}
		scens = append(scens, cfg)
	}

	// Per scenario: baseline, dedicated 1K-11a, and one PV run per PVCache
	// size — all with the cost model on.
	pcs := []sim.PrefetcherConfig{sim.Baseline, sim.SMS1K11}
	for _, entries := range timingPVSizes {
		pcs = append(pcs, sim.SMSVirtualizedSized(entries))
	}
	for i := range scens {
		scens[i].Cost = timing.Config{Enabled: true}
	}

	cyc := report.NewTable("Scenario", "none", "1K-11a", "PV-4", "PV-8", "PV-16", "PV-32", "spd 1K-11a", "spd PV-8")
	slow := report.NewTable("Scenario", "PV-4", "PV-8", "PV-16", "PV-32", "PV-8 hit%", "PV-8 miss cyc", "PV-8 stall cyc", "PV-8 bus cyc", "IPC-proxy ded", "IPC-proxy PV-8")
	var slowdown8s, spd8s []float64
	for _, row := range r.runEach(scens, pcs...) {
		base, ded := row[0], row[1]
		name := base.Config.Workload.Name
		pvBySize := row[2:]
		pv8 := pvBySize[1] // timingPVSizes[1] == 8

		cells := []string{name,
			fmt.Sprintf("%d", base.Cost.ElapsedCycles()),
			fmt.Sprintf("%d", ded.Cost.ElapsedCycles())}
		for _, res := range pvBySize {
			cells = append(cells, fmt.Sprintf("%d", res.Cost.ElapsedCycles()))
		}
		cells = append(cells,
			report.Ratio(base.Cost.SlowdownOver(ded.Cost)), // >1: prefetching sped us up
			report.Ratio(base.Cost.SlowdownOver(pv8.Cost)))
		cyc.AddRow(cells...)

		scells := []string{name}
		for _, res := range pvBySize {
			scells = append(scells, report.Ratio(res.Cost.SlowdownOver(ded.Cost)))
		}
		t8 := pv8.Cost.Totals()
		proxy := pv8.ProxyTotals()
		scells = append(scells,
			report.Pct(proxy.HitRate()),
			fmt.Sprintf("%d", t8.PVMissCycles),
			fmt.Sprintf("%d", t8.PVStallCycles),
			fmt.Sprintf("%d", t8.PVBusCycles),
			fmt.Sprintf("%.4f", ded.Cost.IPCProxy()),
			fmt.Sprintf("%.4f", pv8.Cost.IPCProxy()))
		slow.AddRow(scells...)

		slowdown8s = append(slowdown8s, pv8.Cost.SlowdownOver(ded.Cost))
		spd8s = append(spd8s, base.Cost.SlowdownOver(pv8.Cost))
	}
	slow.AddRow("AVG", "", report.Ratio(avg(slowdown8s)), "", "", "", "", "", "", "", "")

	doc := &report.Doc{ID: "timing", Title: "Dedicated vs virtualized cycle counts (cost model)"}
	doc.Add(report.Section{
		Heading: "Elapsed cycles per configuration",
		Table:   cyc,
		Body: "Modeled elapsed cycles (max across cores) for the measured phase; 'spd' columns are\n" +
			"speedup over the no-prefetch baseline (>1 = prefetching helps). The cost model is a\n" +
			"passive fold over the functional outcome stream: coverage is identical to fig4.",
	})
	doc.Add(report.Section{
		Heading: "Slowdown vs dedicated and PV-8 overhead breakdown",
		Table:   slow,
		Body: fmt.Sprintf("Slowdown is virtualized/dedicated elapsed cycles (1.0000x = free virtualization).\n"+
			"Overhead columns split PV-8's extra cycles into set-fetch, MSHR-stall and L2-bus terms\n"+
			"(summed over cores). Average PV-8 slowdown vs dedicated: %s; average PV-8 speedup\n"+
			"over no-prefetch: %s.", report.Ratio(avg(slowdown8s)), report.Ratio(avg(spd8s))),
	})
	return doc
}
