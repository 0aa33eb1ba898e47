package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric lists of the repository's BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer []MetricDef) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(Workloads(), " ") {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, Workloads())
	}
	return doc.EndToEnd, doc.PerLayer
}

// run executes one tiny run and checks its printed output against the
// declared metrics: each with its unit, nothing else, and the JSON summary
// last.
func run(t *testing.T, want []MetricDef, opts Options) *Result {
	t.Helper()
	opts.Tiny = true
	opts.Dir, opts.TraceDir = t.TempDir(), t.TempDir()
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%v", opts.Workload, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	var out bytes.Buffer
	if err := res.Print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		if len(f) < 3 {
			t.Fatalf("%s: malformed metric line %q", opts.Workload, l)
		}
		units[f[0]] = f[2]
	}
	var summary struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&summary); err != nil || summary.Correct == nil || summary.Attempted == nil || summary.Failed == nil {
		t.Fatalf("%s: last line %q: %v", opts.Workload, lines[len(lines)-1], err)
	}
	for _, d := range want {
		if units[d.Name] != d.Unit {
			t.Errorf("%s: %s printed with unit %q, declared %q", opts.Workload, d.Name, units[d.Name], d.Unit)
		}
		if m, ok := summary.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("%s: %s missing from the summary or in the wrong unit", opts.Workload, d.Name)
		}
		delete(units, d.Name)
	}
	if len(units) != 0 || len(summary.Metrics) != len(want) {
		t.Errorf("%s: undeclared metrics printed: %v (summary has %d, want %d)", opts.Workload, units, len(summary.Metrics), len(want))
	}
	return res
}

// value reads one metric of a result.
func value(res *Result, name string) float64 {
	for _, m := range res.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at its
// smallest size through the real code paths.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	if len(endToEnd) != len(EndToEnd) || len(perLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the harness %d+%d", len(endToEnd), len(perLayer), len(EndToEnd), len(PerLayer))
	}
	digests := map[string]string{}
	for _, w := range Workloads() {
		untraced := run(t, endToEnd, Options{Workload: w, Seed: 3})
		for _, m := range untraced.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, m.Name, m.Value)
			}
		}
		traced := run(t, perLayer, Options{Workload: w, Seed: 3, Trace: true})
		if traced.Digest != untraced.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", w, traced.Digest, untraced.Digest)
		}
		digests[w] = untraced.Digest

		ratio := value(traced, "sweep.exec_ratio")
		switch w {
		case "serve-local":
			if ratio != 1 || value(traced, "service.cache_hit_ops") != 1 {
				t.Errorf("serve-local: exec ratio %v, cache hits %v", ratio, value(traced, "service.cache_hit_ops"))
			}
		case "serve-sharded":
			if ratio <= 1 || value(traced, "span.shard.count") != 2 {
				t.Errorf("serve-sharded: exec ratio %v, shards per sweep %v", ratio, value(traced, "span.shard.count"))
			}
		}
	}
	if digests["serve-local"] != digests["serve-sharded"] {
		t.Errorf("serve-local digest %s, serve-sharded %s", digests["serve-local"], digests["serve-sharded"])
	}

	again := run(t, endToEnd, Options{Workload: "run-pv8", Seed: 3})
	other := run(t, endToEnd, Options{Workload: "run-pv8", Seed: 4})
	if again.Digest != digests["run-pv8"] {
		t.Errorf("seed 3 twice: digests %s and %s", digests["run-pv8"], again.Digest)
	}
	if other.Digest == again.Digest {
		t.Errorf("seeds 3 and 4 share digest %s", other.Digest)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(Options{Workload: "bogus", Dir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), "run-pv8") {
		t.Errorf("unknown workload error = %v", err)
	}
}
