package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// MetricDef declares one metric: its name and unit. BENCHMARK.json declares
// the same lists, with directions and bounds.
type MetricDef struct {
	Name, Unit string
}

// EndToEnd are the metrics a user of the program sees, printed by every
// untraced run.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"maccess_per_s", "Maccess/s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ns_per_access", "ns"},
	{"rss_p90_mb", "MB"},
}

// spanNames are the spans the benchmark records around calls into each
// layer; "op" is the root of one operation, whose self time is the
// harness's own.
var spanNames = []string{
	"op",
	"sim.NewSystem", "sim.Run",
	"sweep.plan", "sweep.baseline_wave", "sweep.job_wave", "sweep.encode",
	"http.submit", "http.stream", "http.result",
	"service.submit", "shard.request",
}

// PerLayer are the metrics of single layers, printed by every traced run.
var PerLayer = perLayerDefs()

func perLayerDefs() []MetricDef {
	var defs []MetricDef
	for _, l := range Layers {
		defs = append(defs, MetricDef{"prof." + l, "ns/access"})
	}
	defs = append(defs,
		MetricDef{"prof.codec", "ns/access"},
		MetricDef{"prof.sim.maps", "ns/access"},
		MetricDef{"prof.memsys.maps", "ns/access"},
		MetricDef{"prof.attributed_share", "ratio"},
		MetricDef{"trace.accesses", "count"},
		MetricDef{"memsys.l1d_read_miss_ratio", "ratio"},
		MetricDef{"memsys.l2_requests", "count"},
		MetricDef{"memsys.l2_pv_requests", "count"},
		MetricDef{"memsys.offchip_reads", "count"},
		MetricDef{"core.pvcache_lookups", "count"},
		MetricDef{"core.pvcache_hit_ratio", "ratio"},
		MetricDef{"core.pv_fetches", "count"},
		MetricDef{"core.pv_writebacks", "count"},
		MetricDef{"core.mshr_stalls", "count"},
		MetricDef{"sms.prefetches_issued", "count"},
		MetricDef{"sms.prefetch_useful_ratio", "ratio"},
		MetricDef{"cpu.ipc", "instr/cycle"},
		MetricDef{"timing.cycles_per_access", "cycles/access"},
		MetricDef{"sweep.sims_planned", "count"},
		MetricDef{"sweep.sims_executed", "count"},
		MetricDef{"sweep.exec_ratio", "ratio"},
		MetricDef{"service.cache_hit_ops", "count"},
		MetricDef{"op_p90_ms", "ms"},
		MetricDef{"first_row_p50_ms", "ms"},
		MetricDef{"first_row_n", "count"},
		MetricDef{"hit_p50_ms", "ms"},
		MetricDef{"hit_n", "count"},
		MetricDef{"rt.alloc_bytes_per_access", "B/access"},
		MetricDef{"rt.gc_cpu_share", "ratio"},
		MetricDef{"trace_overhead", "ratio"},
	)
	for _, s := range spanNames {
		defs = append(defs,
			MetricDef{"span." + s + ".p50_ms", "ms"},
			MetricDef{"span." + s + ".p90_ms", "ms"},
			MetricDef{"span." + s + ".n", "count"},
		)
	}
	return append(defs, MetricDef{"span.shard.count", "count"})
}

// Metric is one measured value. N is the sample count behind a percentile
// (0 for other metrics).
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// values collects measured numbers by metric name until they are laid out
// in declaration order.
type values struct {
	v map[string]float64
	n map[string]int
}

func newValues() values { return values{v: map[string]float64{}, n: map[string]int{}} }

func (vs values) set(name string, v float64) { vs.v[name] = v }

// percentile sets name to the p-th percentile of xs and records its
// sample count.
func (vs values) percentile(name string, xs []float64, p float64) {
	vs.v[name], _ = Percentile(xs, p)
	vs.n[name] = len(xs)
}

// list lays the values out as defs declares them; a metric nothing set
// reads 0.
func (vs values) list(defs []MetricDef) []Metric {
	out := make([]Metric, len(defs))
	for i, d := range defs {
		out[i] = Metric{Name: d.Name, Value: vs.v[d.Name], Unit: d.Unit, N: vs.n[d.Name]}
	}
	return out
}

// Result is one run's outcome.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	// Digest is the sha256 over the outputs of the first DigestOps ops, in
	// op order: every run completes those, so equal seeds give equal
	// digests.
	Digest    string
	DigestOps int
	// Problems says why Correct is false.
	Problems []string
}

// Print writes one `name value unit` line per metric (percentiles carry
// their sample count), the output digest and any problems as `#` comment
// lines, and last the JSON summary line.
func (r *Result) Print(w io.Writer) error {
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%s %v %s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
			if strings.Contains(m.Name, "p90") && !TailSupported(m.N, 90) {
				line += " (fewer than 10 samples beyond)"
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "# output_digest %s over ops 0..%d\n", r.Digest, r.DigestOps-1)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# problem: %s\n", p)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jv, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = jv{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
