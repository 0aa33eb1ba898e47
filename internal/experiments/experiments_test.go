package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"pvsim/internal/sim"
	"pvsim/internal/workloads"
	"pvsim/pv"
)

func tinyRunner() *Runner {
	return NewRunner(Options{Scale: 0.02, Seed: 42})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "space", "ablations", "stride", "btb", "mixes", "timing", "calib"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("position %d: %s, want %s (paper order)", i, all[i].ID, id)
		}
	}
	if _, err := ByID("fig4"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale != 1.0 || o.Parallel <= 0 || o.Log == nil {
		t.Errorf("normalized = %+v", o)
	}
	// Seed passes through untouched: 0 is a real seed, not "use the
	// default" (DefaultOptions carries the evaluation's standard 42).
	if o.Seed != 0 {
		t.Errorf("normalized rewrote Seed 0 to %d", o.Seed)
	}
	if DefaultOptions().Seed != 42 {
		t.Errorf("DefaultOptions seed = %d, want 42", DefaultOptions().Seed)
	}
}

func TestRunnerCaching(t *testing.T) {
	var runs atomic.Int32
	r := NewRunner(Options{Scale: 0.01, Log: func(string, ...interface{}) { runs.Add(1) }})
	w, _ := workloads.ByName("Apache")
	cfg := r.baseConfig(w)
	r.Run(cfg)
	r.Run(cfg)
	if runs.Load() != 1 {
		t.Errorf("identical config simulated %d times, want 1", runs.Load())
	}
	cfg.Prefetch = sim.PV8
	r.Run(cfg)
	if runs.Load() != 2 {
		t.Errorf("distinct config not simulated: %d", runs.Load())
	}
}

// TestRunnerResultCacheBounded pins the result cache's LRU: past
// maxCachedResults the least recently used result is dropped, and a
// bounded cache still caches.
func TestRunnerResultCacheBounded(t *testing.T) {
	r := NewRunner(Options{Scale: 0.0025, Seed: 42})
	for i := 0; i < maxCachedResults; i++ {
		r.storeResult(strconv.Itoa(i), sim.Result{})
	}
	r.lookup("0") // refresh: "1" is now the least recently used
	r.storeResult("new", sim.Result{})
	if got := r.CachedResults(); got != maxCachedResults {
		t.Errorf("result cache holds %d entries, bound is %d", got, maxCachedResults)
	}
	if _, ok := r.cache["1"]; ok {
		t.Error("least recently used result survived eviction")
	}
	if _, ok := r.cache["0"]; !ok {
		t.Error("a refreshed result was evicted")
	}

	// Re-running the most recent config must not simulate again.
	var runs atomic.Int32
	r2 := NewRunner(Options{Scale: 0.0025, Seed: 42,
		Log: func(string, ...interface{}) { runs.Add(1) }})
	w, _ := workloads.ByName("Apache")
	r2.Run(r2.baseConfig(w))
	r2.Run(r2.baseConfig(w))
	if runs.Load() != 1 {
		t.Errorf("cache simulated %d times for one config, want 1", runs.Load())
	}
}

// TestRunnerPoolBounded pins the system pool's one bound: a RunAll that
// mixes four L2 sizes — four hierarchy geometries — never retains more
// than Parallel systems, during the run or after it, and every result
// equals a fresh build's.
func TestRunnerPoolBounded(t *testing.T) {
	w, err := workloads.ByName("Apache")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []sim.Config
	for _, l2 := range []int{1 << 20, 2 << 20, 4 << 20, 8 << 20} {
		for _, spec := range []pv.Spec{{}, sim.PV8} {
			cfg := ConfigFor(w, 0.0025, 42)
			cfg.Hier.L2.SizeBytes = l2
			cfg.Prefetch = spec
			cfgs = append(cfgs, cfg)
		}
	}
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("p%d", parallel), func(t *testing.T) {
			var r *Runner
			var bad atomic.Value
			check := func() {
				if n := r.RetainedSystems(); n > parallel {
					bad.CompareAndSwap(nil, fmt.Sprintf("pool retains %d systems, bound is %d", n, parallel))
				}
				if err := r.CheckPool(); err != nil {
					bad.CompareAndSwap(nil, err.Error())
				}
			}
			// The runner logs each claimed simulation outside its lock, so
			// the pool is checked while other simulations hold systems.
			r = NewRunner(Options{Scale: 0.0025, Seed: 42, Parallel: parallel,
				Log: func(string, ...interface{}) { check() }})
			res := r.RunAll(cfgs)
			check()
			if msg := bad.Load(); msg != nil {
				t.Fatal(msg)
			}
			for i, cfg := range cfgs {
				if want := sim.Run(cfg); !reflect.DeepEqual(res[i], want) {
					t.Fatalf("config %d on a pooled system diverges from a fresh build", i)
				}
			}
		})
	}
}

func TestRunAllPreservesOrder(t *testing.T) {
	r := tinyRunner()
	w1, _ := workloads.ByName("Apache")
	w2, _ := workloads.ByName("Qry1")
	cfgs := []sim.Config{r.baseConfig(w1), r.baseConfig(w2)}
	res := r.RunAll(cfgs)
	if res[0].Config.Workload.Name != "Apache" || res[1].Config.Workload.Name != "Qry1" {
		t.Error("RunAll scrambled order")
	}
}

func TestStaticExperiments(t *testing.T) {
	r := tinyRunner()
	for _, id := range []string{"table1", "table2", "table3", "space"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		doc := e.Run(r)
		if doc.ID != id {
			t.Errorf("%s: doc.ID = %s", id, doc.ID)
		}
		if len(doc.Text()) < 50 {
			t.Errorf("%s: implausibly short output", id)
		}
	}
}

func TestTable3Document(t *testing.T) {
	e, _ := ByID("table3")
	txt := e.Run(tinyRunner()).Text()
	for _, want := range []string{"86.000KB", "59.125KB", "1K-16", "8-11"} {
		if !strings.Contains(txt, want) {
			t.Errorf("table3 missing %q:\n%s", want, txt)
		}
	}
}

func TestSpaceDocument(t *testing.T) {
	e, _ := ByID("space")
	txt := e.Run(tinyRunner()).Text()
	for _, want := range []string{"889", "473", "68"} {
		if !strings.Contains(txt, want) {
			t.Errorf("space missing %q:\n%s", want, txt)
		}
	}
}

func TestFig4Document(t *testing.T) {
	doc := mustRun(t, "fig4")
	txt := doc.Text()
	for _, w := range workloads.Names() {
		if !strings.Contains(txt, w) {
			t.Errorf("fig4 missing workload %s", w)
		}
	}
	for _, cfg := range []string{"Infinite", "1K-16a", "1K-11a", "16-11a", "8-11a"} {
		if !strings.Contains(txt, cfg) {
			t.Errorf("fig4 missing config %s", cfg)
		}
	}
}

func TestFig6Document(t *testing.T) {
	txt := mustRun(t, "fig6").Text()
	if !strings.Contains(txt, "PV-8") || !strings.Contains(txt, "AVG") {
		t.Errorf("fig6 output:\n%s", txt)
	}
}

func TestFig9Document(t *testing.T) {
	txt := mustRun(t, "fig9").Text()
	for _, want := range []string{"SMS-1K-11a", "SMS-PV-8", "AVG", "±"} {
		if !strings.Contains(txt, want) {
			t.Errorf("fig9 missing %q", want)
		}
	}
}

func mustRun(t *testing.T, id string) interface {
	Text() string
} {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(tinyRunner())
}

// TestAllExperimentsRunTiny smoke-tests every experiment end to end at a
// very small scale.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	r := NewRunner(Options{Scale: 0.01, Seed: 7})
	for _, e := range All() {
		doc := e.Run(r)
		if doc == nil || len(doc.Sections) == 0 {
			t.Errorf("%s produced empty document", e.ID)
		}
	}
}

func TestAblationsDocument(t *testing.T) {
	txt := mustRun(t, "ablations").Text()
	for _, want := range []string{"PVCache size", "On-chip-only", "Shared vs per-core", "arbitration"} {
		if !strings.Contains(txt, want) {
			t.Errorf("ablations missing %q", want)
		}
	}
}

func TestTimingDocument(t *testing.T) {
	txt := mustRun(t, "timing").Text()
	for _, want := range []string{"1K-11a", "PV-4", "PV-8", "PV-16", "PV-32", "oltp-web", "ctx-fast", "AVG", "slowdown", "x"} {
		if !strings.Contains(txt, want) {
			t.Errorf("timing missing %q:\n%s", want, txt)
		}
	}
	for _, w := range workloads.Names() {
		if !strings.Contains(txt, w) {
			t.Errorf("timing missing workload %s", w)
		}
	}
}

func TestStrideDocument(t *testing.T) {
	txt := mustRun(t, "stride").Text()
	for _, want := range []string{"stride-1K", "stride-PV8", "SMS 1K-11a", "AVG"} {
		if !strings.Contains(txt, want) {
			t.Errorf("stride missing %q", want)
		}
	}
}
