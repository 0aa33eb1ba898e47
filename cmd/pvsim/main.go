// Command pvsim regenerates the paper's tables and figures, and runs
// parameter-grid sweeps — one-shot or as an HTTP service.
//
// Usage:
//
//	pvsim [flags] list                 # show experiments, predictors, configs, workloads
//	pvsim [flags] fig4 [fig6 ...]      # run specific experiments
//	pvsim [flags] all                  # run everything, in paper order
//	pvsim sweep [sweep flags]          # run a spec x workload x pvcache x seed grid
//	pvsim serve [serve flags]          # sweep service: submit/poll/fetch over HTTP
//	pvsim shard [shard flags]          # shard worker: runs job ranges for a serve coordinator
//	pvsim mc [mc flags]                # model-check the sweep pool and PVProxy state machine
//
// Flags (experiments):
//
//	-scale f    access-count multiplier (1.0 = default scale, 0 means 1.0;
//	            NaN, infinite or negative values are rejected)
//	-seed n     workload generator seed
//	-format s   text | md | csv | json
//	-o file     write output to file instead of stdout
//	-v          log per-run progress to stderr
//	-p n        max parallel simulations (default GOMAXPROCS)
//
// `pvsim sweep -h`, `pvsim serve -h` and `pvsim mc -h` describe the
// subcommand flags; the
// sweep grid comes from -specs/-workloads/-pvcache/-seeds flags or a -grid
// JSON file, and sweep output at any -p is byte-identical to -p 1.
//
// list enumerates, besides the experiments, every predictor family in the
// pv registry and every registered named configuration — the same
// registry sim.Config resolves specs against, so what list prints is
// exactly what a config (or a sweep grid) can name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pvsim/internal/experiments"
	"pvsim/internal/report"
	"pvsim/internal/workloads"
	"pvsim/pv"

	_ "pvsim/pv/predictors" // register the built-in predictor families
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if code := exitCode(err); code != 0 {
		fmt.Fprintln(os.Stderr, "pvsim:", err)
		os.Exit(code)
	}
}

// exitCode maps run's error to the process exit status: 0 on success and
// when -h asked for the usage (flag.ErrHelp), 1 otherwise.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 1
}

func run(args []string, stdout io.Writer) error {
	// Subcommands own their flags; dispatch before the experiment flags.
	if len(args) > 0 {
		switch args[0] {
		case "sweep":
			return runSweep(args[1:], stdout)
		case "serve":
			return runServe(args[1:], stdout)
		case "shard":
			return runShard(args[1:], stdout)
		case "mc":
			return runMC(args[1:], stdout)
		}
	}

	fs := flag.NewFlagSet("pvsim", flag.ContinueOnError)
	scale := scaleFlag(fs)
	seed := fs.Uint64("seed", 42, "workload generator seed")
	format := fs.String("format", "text", "output format: text|md|csv|json")
	outFile := fs.String("o", "", "output file (default stdout)")
	verbose := fs.Bool("v", false, "log per-run progress")
	parallel := fs.Int("p", 0, "max parallel simulations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no experiment given; try 'pvsim list'")
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed, Parallel: *parallel}
	if *verbose {
		opts.Log = func(f string, a ...interface{}) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}

	// Resolve every id before -o creates (and truncates) the output file.
	var exps []experiments.Experiment
	for _, a := range fs.Args() {
		switch a {
		case "list":
			return writeOutput(*outFile, stdout, printList)
		case "all":
			exps = append(exps, experiments.All()...)
		case "sweep", "serve", "shard", "mc":
			// Reached via `pvsim -p 4 sweep ...`: flag parsing stopped at the
			// subcommand word, so the leading flags never reached it. Point
			// at the right invocation instead of "unknown experiment".
			return fmt.Errorf("%q is a subcommand and must come first: use 'pvsim %s [flags]' (its flags go after it)", a, a)
		default:
			e, err := experiments.ByID(a)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	runner := experiments.NewRunner(opts)
	return writeOutput(*outFile, stdout, func(out io.Writer) error {
		for _, e := range exps {
			if err := emit(out, e.Run(runner), *format); err != nil {
				return err
			}
		}
		return nil
	})
}

// scaleFlag defines -scale on fs, defaulting to 1.0; parsing rejects
// every value experiments.CheckScale does.
func scaleFlag(fs *flag.FlagSet) *float64 {
	scale := 1.0
	fs.Func("scale", "access-count `multiplier`, 0 means 1.0 (default 1)", func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil {
			err = experiments.CheckScale(v)
		}
		if err == nil {
			scale = v
		}
		return err
	})
	return &scale
}

// printList writes the list output: experiments, registered predictors,
// named configs, workloads and named mixes.
func printList(out io.Writer) error {
	fmt.Fprintln(out, "experiments:")
	for _, e := range experiments.All() {
		fmt.Fprintf(out, "  %-8s %s\n", e.ID, e.Title)
	}
	fmt.Fprintf(out, "\nregistered predictors:\n  %s\n", strings.Join(pv.Names(), ", "))
	fmt.Fprintln(out, "\nnamed configs:")
	for _, name := range pv.SpecNames() {
		s, err := pv.SpecByName(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-12s %s\n", name, describeSpec(s))
	}
	fmt.Fprintln(out, "\nworkloads:")
	for _, w := range workloads.All() {
		fmt.Fprintf(out, "  %-8s %-5s %s\n", w.Name, w.Class, w.Description)
	}
	fmt.Fprintln(out, "\nnamed mixes (pvsim sweep -mixes; also per-core specs like DB2/DB2/Apache/Apache):")
	for _, m := range workloads.Mixes() {
		fmt.Fprintf(out, "  %-12s %s — %s\n", m.Name, m.Spec(), m.Desc)
	}
	return nil
}

// writeOutput runs write against the file at path, or against stdout when
// path is empty. The file is closed on every path, and its Close error is
// reported on the success path, so a failed write-back never exits 0.
func writeOutput(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// describeSpec renders one registry entry for the list output.
func describeSpec(s pv.Spec) string {
	if !s.Enabled() {
		return "no prefetcher (baseline)"
	}
	d := fmt.Sprintf("%s: %s, %s", s.Name, s.Label(), s.Mode)
	if s.Mode == pv.Virtualized {
		d += fmt.Sprintf(", %d-entry PVCache", s.PVCacheEntries)
	}
	return d
}

func emit(w io.Writer, doc *report.Doc, format string) error {
	switch format {
	case "text":
		_, err := io.WriteString(w, doc.Text())
		return err
	case "md":
		_, err := io.WriteString(w, doc.Markdown())
		return err
	case "csv":
		for _, s := range doc.Sections {
			if s.Table != nil {
				if _, err := fmt.Fprintf(w, "# %s %s\n%s", doc.ID, s.Heading, s.Table.CSV()); err != nil {
					return err
				}
			}
		}
		return nil
	case "json":
		b, err := doc.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	default:
		return fmt.Errorf("unknown format %q (want text|md|csv|json)", format)
	}
}
