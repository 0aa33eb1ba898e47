// Command pvtrace compiles and inspects synthetic workload traces: the
// exact access streams the simulator feeds the memory hierarchy. Traces
// are written in the compiled block format (PVA2) — chunked delta encoding
// with periodic absolute sync points — and replay with zero allocation.
//
// Usage:
//
//	pvtrace -compile -workload Apache -n 1000000 -core 0 -o apache.pvc
//	pvtrace -inspect apache.pvc
//	pvtrace -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pvsim/internal/trace"
	"pvsim/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pvtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pvtrace", flag.ContinueOnError)
	compile := fs.Bool("compile", false, "compile a trace (PVA2 block format)")
	inspect := fs.String("inspect", "", "summarize a compiled trace file")
	list := fs.Bool("list", false, "list available workloads")
	workload := fs.String("workload", "Apache", "workload to compile")
	n := fs.Int("n", 1_000_000, "accesses to compile")
	core := fs.Int("core", 0, "core whose stream to compile")
	seed := fs.Uint64("seed", 42, "generator seed")
	chunk := fs.Int("chunk", 0, "records per compiled chunk (0 = default)")
	outFile := fs.String("o", "", "output file for -compile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A negative core would wrap the generator's per-core address base into
	// other cores' address spaces; a negative chunk is no chunk length.
	if *core < 0 {
		return fmt.Errorf("-core %d: must be >= 0", *core)
	}
	if *chunk < 0 {
		return fmt.Errorf("-chunk %d: must be >= 0 (0 = default)", *chunk)
	}

	switch {
	case *list:
		for _, w := range workloads.All() {
			fmt.Fprintf(out, "%-8s %-5s %s\n", w.Name, w.Class, w.Description)
		}
		return nil

	case *compile:
		if *outFile == "" {
			return fmt.Errorf("-compile needs -o FILE")
		}
		w, err := workloads.ByName(*workload)
		if err != nil {
			return err
		}
		meta := fmt.Sprintf("workload=%s seed=%d core=%d", w.Name, *seed, *core)
		ct, err := trace.Compile(trace.NewGenerator(w.Params, *seed, *core), *n, *chunk, meta)
		if err != nil {
			return err
		}
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		written, err := ct.WriteTo(f)
		if err != nil {
			f.Close() // the write error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "compiled %d accesses to %s (%d chunks of %d, %.1f MB, %.2f B/access)\n",
			*n, *outFile, ct.Chunks(), ct.ChunkLen(), float64(written)/1e6, ratio(float64(written), float64(*n)))
		return nil

	case *inspect != "":
		ct, err := trace.OpenCompiled(*inspect)
		if err != nil {
			return err
		}
		desc := fmt.Sprintf("PVA2 compiled (%d chunks of %d)", ct.Chunks(), ct.ChunkLen())
		if m := ct.Meta(); m != "" {
			desc += " — " + m
		}
		s := trace.Summarize(ct.Replayer())
		fmt.Fprintf(out, "format:          %s\n", desc)
		fmt.Fprintf(out, "accesses:        %d\n", s.Accesses)
		fmt.Fprintf(out, "writes:          %d (%.1f%%)\n", s.Writes, ratio(float64(s.Writes), float64(s.Accesses))*100)
		fmt.Fprintf(out, "distinct blocks: %d (%.1f MB footprint)\n", s.DistinctBlocks, float64(s.DistinctBlocks)*64/1e6)
		fmt.Fprintf(out, "distinct PCs:    %d\n", s.DistinctPCs)
		fmt.Fprintf(out, "2KB regions:     %d\n", s.Regions)
		return nil

	default:
		return fmt.Errorf("one of -compile, -inspect or -list required")
	}
}

// ratio is a/b, or 0 for an empty trace (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
