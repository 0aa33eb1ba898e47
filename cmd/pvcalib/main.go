// Command pvcalib prints the calibration dashboard used to tune the
// synthetic workloads against the paper's reported behaviour: per workload,
// the baseline miss rate and L2 hit fraction, the Figure 4 coverage points,
// the Figure 6 L2-request increase, the PVProxy hit/fill rates, and the
// Figure 9 timing speedups for SMS 1K-11a and PV-8.
//
// Usage: pvcalib [-scale f] [-seed n]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pvsim/internal/experiments"
	"pvsim/internal/memsys"
	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/workloads"

	_ "pvsim/pv/predictors" // register the built-in predictor families
)

func main() {
	scale := flag.Float64("scale", 0.5, "access-count multiplier")
	seed := flag.Uint64("seed", 42, "workload seed")
	flag.Parse()
	if err := calibrate(*scale, *seed, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pvcalib:", err)
		os.Exit(1)
	}
}

// calibrate runs the dashboard's simulation matrix and renders the table;
// main is a flag-parsing shell around it so the smoke test can drive the
// whole command in-process. Every simulation goes through one
// experiments.Runner, which bounds parallelism, pools systems and runs
// each distinct config once, however often the list repeats it.
func calibrate(scale float64, seed uint64, out io.Writer) error {
	if err := experiments.CheckScale(scale); err != nil {
		return err
	}
	if measure := float64(sim.DefaultScale) * scale; measure < 1000 {
		return fmt.Errorf("scale %g too small (measure %d < 1000 accesses)", scale, int(measure))
	}

	// Per workload: the baseline, one run per coverage column (PV-8's
	// also feeds ΔL2req and L2fill), then the timing baseline and the two
	// timed prefetchers.
	coverage := []sim.PrefetcherConfig{sim.SMSInfinite, sim.SMS1K11, sim.SMS16, sim.SMS8, sim.PV8}
	timed := []sim.PrefetcherConfig{sim.Baseline, sim.SMS1K11, sim.PV8}
	per := 1 + len(coverage) + len(timed)
	ws := workloads.All()
	cfgs := make([]sim.Config, 0, len(ws)*per)
	for _, w := range ws {
		cfg := experiments.ConfigFor(w, scale, seed)
		tb := cfg
		tb.Timing = true
		tb.Windows = 20
		for _, pc := range append([]sim.PrefetcherConfig{sim.Baseline}, coverage...) {
			cfg.Prefetch = pc
			cfgs = append(cfgs, cfg)
		}
		for _, pc := range timed {
			tb.Prefetch = pc
			cfgs = append(cfgs, tb)
		}
	}
	results := experiments.NewRunner(experiments.Options{Scale: scale, Seed: seed}).RunAll(cfgs)

	rows := make([][]string, len(ws))
	for wi, w := range ws {
		res := results[wi*per : (wi+1)*per]
		bres, cov, tres := res[0], res[1:1+len(coverage)], res[1+len(coverage):]
		row := []string{
			w.Name,
			fmt.Sprintf("%.3f", float64(bres.L1DReadMisses())/float64(bres.L1DReads())),
			fmt.Sprintf("%.2f", float64(bres.Mem.L2Hits[memsys.Load])/float64(bres.Mem.L2Requests[memsys.Load])),
		}
		for _, r := range cov {
			c := sim.CoverageOf(bres, r)
			row = append(row, fmt.Sprintf("%.1f/%.1f", c.Covered*100, c.Overpredicted*100))
		}
		ref, pvres := cov[1], cov[4] // SMS 1K-11a and PV-8
		pxy := pvres.ProxyTotals()
		row = append(row,
			fmt.Sprintf("%.1f%%", (float64(pvres.Mem.L2RequestsTotal())/float64(ref.Mem.L2RequestsTotal())-1)*100),
			fmt.Sprintf("%.2f", pxy.L2FillRate()))
		for _, run := range tres[1:] {
			iv, err := sim.SpeedupOver(tres[0], run)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, fmt.Sprintf("%+.1f%%", (iv.Mean-1)*100))
		}
		rows[wi] = row
	}

	t := report.NewTable("Workload", "missRate", "L2hit",
		"Inf cov/ovr", "1K-11", "16-11", "8-11", "PV-8",
		"ΔL2req", "L2fill", "spd 1K", "spd PV8")
	for _, r := range rows {
		t.AddRow(r...)
	}
	fmt.Fprint(out, t.Text())
	fmt.Fprintln(out, "\ncov/ovr = % of baseline L1 read misses covered / overpredicted")
	return nil
}
