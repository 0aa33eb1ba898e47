// Command pvbench runs one workload of the repository's benchmark and
// prints its metrics, one `name value unit` line each, then a JSON summary
// as the last line:
//
//	pvbench --workload run-pv8 --seed 1 --seconds 24 --trace 0
//
// --trace 1 prints the per-layer metrics instead, and writes spans.json and
// the CPU profiles under --trace-dir. It exits 1 when an output is wrong.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pvsim/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(bench.Workloads(), ", "))
	seed := flag.Uint64("seed", bench.DefaultSeed, "input seed; op i uses seed+i")
	seconds := flag.Float64("seconds", 24, "how long to measure")
	trace := flag.Int("trace", 0, "1 to print per-layer metrics from a traced run, 0 for end-to-end ones")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where a traced run writes spans.json and its CPU profiles")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	res, err := bench.Run(bench.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		TraceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pvbench:", err)
		os.Exit(2)
	}
	if err := res.Print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pvbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
