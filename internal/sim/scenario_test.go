package sim

import (
	"reflect"
	"strings"
	"testing"

	"pvsim/internal/workloads"
	"pvsim/pv"
)

// mixConfig builds a small run of the given mix spec.
func mixConfig(t *testing.T, spec string) Config {
	t.Helper()
	m, err := workloads.ParseMix(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(workloads.Workload{Name: m.Name})
	cores, err := m.ForCores(cfg.Hier.Cores)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cores = cores
	cfg.Warmup, cfg.Measure = 20_000, 20_000
	return cfg
}

// stripConfig zeroes the Config inside a Result so two results can be
// compared on behaviour alone (homogeneous-mix and plain-workload configs
// differ by construction but must simulate identically).
func stripConfig(r Result) Result {
	r.Config = Config{}
	return r
}

// TestHomogeneousMixBitIdentical is the acceptance check for the scenario
// subsystem: assigning the same workload to every core through Config.Cores
// must reproduce the plain single-workload run bit for bit — memory-system
// statistics, predictor statistics, proxies, everything.
func TestHomogeneousMixBitIdentical(t *testing.T) {
	for _, prefetch := range []PrefetcherConfig{Baseline, SMS1K11, PV8} {
		plain := quickConfig(t, "Apache")
		plain.Prefetch = prefetch

		mixed := mixConfig(t, "Apache/Apache/Apache/Apache")
		mixed.Prefetch = prefetch

		a, b := stripConfig(Run(plain)), stripConfig(Run(mixed))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: homogeneous mix diverges from the plain workload run:\nplain: %+v\nmix:   %+v",
				prefetch.Label(), a, b)
		}
	}
}

// TestHeterogeneousMixRuns: a real mix must run, be deterministic, and
// actually put different streams on different cores (DB2 cores and Apache
// cores see different read counts under the same measure budget only in
// their miss behaviour — reads are fixed — so compare misses).
func TestHeterogeneousMixRuns(t *testing.T) {
	cfg := mixConfig(t, "oltp-web")
	a, b := Run(cfg), Run(cfg)
	if !reflect.DeepEqual(stripConfig(a), stripConfig(b)) {
		t.Fatal("heterogeneous mix is not deterministic")
	}
	if a.L1DReads() == 0 || a.L1DReadMisses() == 0 {
		t.Fatal("mix run produced no traffic")
	}
	// Core 0 runs DB2, core 2 Apache: their private-data footprints differ,
	// so their miss counts must not be equal.
	if a.Mem.Core[0].L1DReadMisses == a.Mem.Core[2].L1DReadMisses {
		t.Errorf("DB2 core and Apache core report identical misses (%d); cores not heterogeneous?",
			a.Mem.Core[0].L1DReadMisses)
	}
	// And the mix differs from both homogeneous runs.
	db2 := Run(quickConfig(t, "DB2"))
	if a.L1DReadMisses() == db2.L1DReadMisses() {
		t.Error("mix run identical to homogeneous DB2 run")
	}
}

// TestPhasedMixSwitchesBehaviour: with phase lengths smaller than the
// measure budget, a phased run must be deterministic and differ from both
// steady runs it is stitched from.
func TestPhasedMixSwitchesBehaviour(t *testing.T) {
	phased := mixConfig(t, "DB2@3000+Apache@3000")
	p := Run(phased)
	if !reflect.DeepEqual(stripConfig(p), stripConfig(Run(phased))) {
		t.Fatal("phased mix is not deterministic")
	}
	for _, steady := range []string{"DB2", "Apache"} {
		s := Run(mixConfig(t, steady))
		if p.L1DReadMisses() == s.L1DReadMisses() {
			t.Errorf("phased run indistinguishable from steady %s", steady)
		}
	}
}

// TestPhaseFlushFlushesPredictorOnly: the flush changes predictor state,
// never the demand stream — reads identical, predictor/prefetch behaviour
// not.
func TestPhaseFlushFlushesPredictorOnly(t *testing.T) {
	base := mixConfig(t, "DB2@2000+Apache@2000")
	base.Prefetch = PV8

	flush := base
	flush.PhaseFlush = true

	a, b := Run(base), Run(flush)
	if a.L1DReads() != b.L1DReads() {
		t.Fatalf("PhaseFlush changed the demand stream: %d vs %d reads", a.L1DReads(), b.L1DReads())
	}
	if a.PrefetchIssued() == b.PrefetchIssued() && a.ProxyTotals() == b.ProxyTotals() {
		t.Error("PhaseFlush had no observable effect on predictor behaviour")
	}
	// Flushing at every phase edge discards trained state, so the flushing
	// run cannot issue more prefetches than the retaining one.
	if b.PrefetchIssued() > a.PrefetchIssued() {
		t.Errorf("flushing run issued more prefetches (%d) than the retaining one (%d)",
			b.PrefetchIssued(), a.PrefetchIssued())
	}
}

// TestPhaseFlushRebuildsPredictor: a phase edge under PhaseFlush replaces
// every core's predictor with a freshly built instance, while a run without
// the flush keeps the instances NewSystem built.
func TestPhaseFlushRebuildsPredictor(t *testing.T) {
	for _, flush := range []bool{false, true} {
		cfg := mixConfig(t, "DB2@2000+Apache@2000")
		cfg.Prefetch = PV8
		cfg.PhaseFlush = flush
		sys := NewSystem(cfg)
		built := make([]pv.Instance, cfg.Hier.Cores)
		for c := range built {
			built[c] = sys.Predictor(c)
		}
		sys.Run()
		for c, inst := range built {
			if rebuilt := sys.Predictor(c) != inst; rebuilt != flush {
				t.Errorf("PhaseFlush=%v: core %d predictor replaced = %v, want %v", flush, c, rebuilt, flush)
			}
		}
	}
}

// TestScenarioSignature: per-core assignments, phase lengths and the flush
// switch must all be part of the config identity, while homogeneous
// configs keep their pre-mix signatures (no |mix= component).
func TestScenarioSignature(t *testing.T) {
	plain := quickConfig(t, "Apache")
	if strings.Contains(plain.Signature(), "|mix=") {
		t.Error("homogeneous config signature grew a mix component")
	}
	sigs := map[string]string{}
	for _, spec := range []string{
		"Apache/Apache/Apache/Apache",
		"DB2/DB2/Apache/Apache",
		"DB2@2000+Apache@2000",
		"DB2@4000+Apache@4000",
	} {
		cfg := mixConfig(t, spec)
		sig := cfg.Signature()
		if !strings.Contains(sig, "|mix=") {
			t.Errorf("mix config signature lacks the mix component: %s", sig)
		}
		if prev, ok := sigs[sig]; ok {
			t.Errorf("specs %q and %q share a signature", prev, spec)
		}
		sigs[sig] = spec
	}
	cfg := mixConfig(t, "DB2@2000+Apache@2000")
	withFlush := cfg
	withFlush.PhaseFlush = true
	if cfg.Signature() == withFlush.Signature() {
		t.Error("PhaseFlush not part of the signature")
	}
}

// TestScenarioValidate: per-core assignments must match the core count and
// carry valid phases.
func TestScenarioValidate(t *testing.T) {
	cfg := mixConfig(t, "oltp-web")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	short := cfg
	short.Cores = cfg.Cores[:2]
	if err := short.Validate(); err == nil {
		t.Error("2 core assignments for 4 cores accepted")
	}
	bad := cfg
	bad.Cores = append([]workloads.CoreTrace(nil), cfg.Cores...)
	bad.Cores[0].Phases = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty phase list accepted")
	}
	// A mix config ignores Workload.Params entirely: the zero workload must
	// not fail validation when Cores is set.
	if cfg.Workload.Params.Validate() == nil {
		t.Error("test premise broken: mix config carries valid Workload.Params")
	}
}
