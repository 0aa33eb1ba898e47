package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pvsim/internal/sweep"
)

// runSweep implements `pvsim sweep`: expand a parameter grid and run it on
// the deterministic sweep engine. The grid comes either from flags
// (-specs/-workloads/-pvcache/-seeds/-scale/-timing) or from a JSON file
// (-grid), matching the serve API's request body.
func runSweep(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pvsim sweep", flag.ContinueOnError)
	specs := fs.String("specs", "", "comma-separated registered spec names (see 'pvsim list')")
	workloadsFlag := fs.String("workloads", "", "comma-separated workload names (default: all eight, unless -mixes is set)")
	mixes := fs.String("mixes", "", "comma-separated mix specs: named mixes (see 'pvsim list') or per-core forms like DB2/DB2/Apache/Apache or DB2+Apache@50000")
	phaseFlush := fs.Bool("phaseflush", false, "flush predictor state at phase edges of phased mixes")
	pvcache := fs.String("pvcache", "", "comma-separated PVCache entry counts, applied to virtualized specs")
	seeds := fs.String("seeds", "", "comma-separated workload seeds (default: 42; 0 is a real seed)")
	scale := scaleFlag(fs)
	timing := fs.Bool("timing", false, "enable the IPC model (adds IPC and speedup columns)")
	cost := fs.Bool("cost", false, "enable the passive cycle-approximate cost model (adds Cycles/CPA/SpdProxy columns; perturbs nothing)")
	gridFile := fs.String("grid", "", "JSON grid description file (overrides the grid flags)")
	format := fs.String("format", "text", "output format: text|md|csv|json (json = structured rows)")
	outFile := fs.String("o", "", "output file (default stdout)")
	verbose := fs.Bool("v", false, "log per-run progress to stderr")
	parallel := fs.Int("p", 0, "max parallel simulations (output is identical at any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("sweep: unexpected arguments %v (the grid is given by flags or -grid)", fs.Args())
	}

	var g sweep.Grid
	if *gridFile != "" {
		f, err := os.Open(*gridFile)
		if err != nil {
			return err
		}
		g, err = sweep.DecodeGrid(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *gridFile, err)
		}
	} else {
		g = sweep.Grid{
			Specs:      splitList(*specs),
			Workloads:  splitList(*workloadsFlag),
			Mixes:      splitList(*mixes),
			PhaseFlush: *phaseFlush,
			Scale:      *scale,
			Timing:     *timing,
			Cost:       *cost,
		}
		for _, s := range splitList(*pvcache) {
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("sweep: -pvcache %q: %w", s, err)
			}
			g.PVCache = append(g.PVCache, n)
		}
		for _, s := range splitList(*seeds) {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return fmt.Errorf("sweep: -seeds %q: %w", s, err)
			}
			g.Seeds = append(g.Seeds, n)
		}
	}
	if err := g.Validate(); err != nil {
		return err
	}

	opts := sweep.Options{Parallel: *parallel}
	var progress sweep.Progress
	if *verbose {
		opts.Log = func(f string, a ...interface{}) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
		progress = func(done, total int) { fmt.Fprintf(os.Stderr, "sweep: %d/%d jobs\n", done, total) }
	}

	res, err := sweep.New(opts).Run(context.Background(), g, progress)
	if err != nil {
		return err
	}

	return writeOutput(*outFile, stdout, func(out io.Writer) error {
		if *format == "json" {
			b, err := res.JSON()
			if err != nil {
				return err
			}
			_, err = out.Write(b)
			return err
		}
		return emit(out, res.Doc(), *format)
	})
}

// splitList splits a comma-separated flag value, dropping empty elements so
// an unset flag yields nil (the grid's "use defaults").
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
