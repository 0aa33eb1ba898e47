package sim

import (
	"reflect"
	"strings"
	"testing"

	"pvsim/internal/timing"
	"pvsim/internal/trace"
	"pvsim/internal/workloads"
)

// TestCompiledRunBitIdentical is the determinism pin of the compiled-trace
// fast path: for every prefetcher wiring (including timing, mixes, and the
// phased-flush fallback), a Config.Compile run must produce exactly the
// Result of the live-generator run — same accesses, same interleaving,
// same statistics to the last counter.
func TestCompiledRunBitIdentical(t *testing.T) {
	cfgs := resetConfigs(t)
	// Add a cost-model wiring: the fold's per-step proxy snapshots must
	// survive batching untouched.
	cost := cfgs["pv8-timing"]
	cost.Cost = timing.Config{Enabled: true}
	cfgs["pv8-timing-cost"] = cost

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			live := Run(cfg)

			ccfg := cfg
			ccfg.Compile = true
			sys := NewSystem(ccfg)
			if cfg.PhaseFlush && len(cfg.Cores) > 0 {
				if sys.Compiled() {
					t.Fatal("phase-flush system compiled its streams; edge hooks are interleaving-sensitive")
				}
			} else if !sys.Compiled() {
				t.Fatal("Config.Compile did not compile the streams")
			}
			got := sys.Run()
			// Result embeds the Config; the runs differ only in the Compile
			// switch, which Signature excludes. Normalize it before the
			// bit-compare so only simulation output is compared.
			got.Config.Compile = false
			if !reflect.DeepEqual(live, got) {
				t.Fatalf("compiled run diverges from live run:\n%+v\nvs\n%+v", live, got)
			}
		})
	}
}

// TestCompiledSignatureUnchanged pins that Compile stays out of the cache
// key: compiled runs are bit-identical, so they must share pooled systems
// and cached results with live runs.
func TestCompiledSignatureUnchanged(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	ccfg := cfg
	ccfg.Compile = true
	if cfg.Signature() != ccfg.Signature() {
		t.Fatalf("Compile changed the signature:\n%s\nvs\n%s", cfg.Signature(), ccfg.Signature())
	}
}

// TestCompiledResetReuse pins the pool-reuse path: a compiled system Reset
// and re-Run must reproduce its first Result exactly (the replayers rewind
// in place; nothing is recompiled).
func TestCompiledResetReuse(t *testing.T) {
	cfg := quickConfig(t, "DB2")
	cfg.Prefetch = PV8
	cfg.Compile = true
	sys := NewSystem(cfg)
	first := sys.Run()
	sys.Reset()
	if !sys.Compiled() {
		t.Fatal("Reset dropped the compiled streams")
	}
	second := sys.Run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("compiled reset-system run diverges:\n%+v\nvs\n%+v", first, second)
	}
}

// TestCompileStreamsGating pins the explicit CompileStreams surface: it
// refuses phase-flush systems, compiles everything else, and is idempotent.
func TestCompileStreamsGating(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	sys := NewSystem(cfg)
	if !sys.Batchable() {
		t.Fatal("plain system not batchable")
	}
	if !sys.CompileStreams(cfg.Warmup + cfg.Measure) {
		t.Fatal("CompileStreams refused a batchable system")
	}
	if !sys.CompileStreams(cfg.Warmup + cfg.Measure) {
		t.Fatal("second CompileStreams not a no-op success")
	}

	phm, err := workloads.ParseMix("DB2@700+Apache@900")
	if err != nil {
		t.Fatal(err)
	}
	phCores, err := phm.ForCores(cfg.Hier.Cores)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Cores = phCores
	pcfg.PhaseFlush = true
	pcfg.Prefetch = PV8
	psys := NewSystem(pcfg)
	if psys.Batchable() {
		t.Fatal("phase-flush system claims to be batchable")
	}
	if psys.CompileStreams(pcfg.Warmup + pcfg.Measure) {
		t.Fatal("CompileStreams accepted a phase-flush system")
	}
	// Phased WITHOUT flush has no edge hooks and must compile.
	nfcfg := pcfg
	nfcfg.PhaseFlush = false
	nfsys := NewSystem(nfcfg)
	if !nfsys.CompileStreams(nfcfg.Warmup + nfcfg.Measure) {
		t.Fatal("CompileStreams refused a phased-no-flush system")
	}
}

// TestStepBatchMatchesStep pins StepBatch against per-access stepping on a
// single-core system (where batch order and round-robin order coincide).
func TestStepBatchMatchesStep(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Hier.Cores = 1
	cfg.Prefetch = PV8
	cfg.Timing = true
	const n = 8_000

	a := NewSystem(cfg)
	for i := 0; i < n; i++ {
		a.Step(0)
	}

	b := NewSystem(cfg)
	accs := make([]trace.Access, n)
	src := trace.NewGenerator(cfg.Workload.Params, cfg.Seed, 0)
	for i := range accs {
		accs[i] = src.Next()
	}
	b.StepBatch(0, accs)

	if !reflect.DeepEqual(a.Hier.Stats, b.Hier.Stats) {
		t.Fatalf("hierarchy stats diverge:\n%+v\nvs\n%+v", a.Hier.Stats, b.Hier.Stats)
	}
	if a.Clock(0) != b.Clock(0) {
		t.Fatalf("clocks diverge: %d vs %d", a.Clock(0), b.Clock(0))
	}
}

// TestCheckStreamsTruncated is the regression pin for the dry-stream
// panic: compiling fewer accesses than the run needs must surface as a
// descriptive error from CheckStreams/RunChecked — up front, before any
// stepping — while Run still panics with the same diagnosis for callers
// that skipped the checked surface.
func TestCheckStreamsTruncated(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Prefetch = PV8

	sys := NewSystem(cfg)
	if err := sys.CheckStreams(); err != nil {
		t.Fatalf("live system CheckStreams: %v", err)
	}
	short := cfg.Warmup + cfg.Measure - 1000
	if !sys.CompileStreams(short) {
		t.Fatal("CompileStreams refused the system")
	}
	err := sys.CheckStreams()
	if err == nil {
		t.Fatal("CheckStreams accepted truncated streams")
	}
	for _, want := range []string{"core 0", "holds", "recompile"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("CheckStreams error %q missing %q", err, want)
		}
	}
	if _, rerr := sys.RunChecked(); rerr == nil {
		t.Fatal("RunChecked ran a truncated compiled system")
	}

	// Run must panic up front with the dry-stream diagnosis, not step into
	// the truncation.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Run did not panic on truncated streams")
			}
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "holds") {
				t.Fatalf("Run panic %v is not the dry-stream diagnosis", r)
			}
		}()
		sys.Run()
	}()

	// A correctly sized recompile clears the error and the run completes.
	fresh := NewSystem(cfg)
	if !fresh.CompileStreams(cfg.Warmup + cfg.Measure) {
		t.Fatal("CompileStreams refused the fresh system")
	}
	if err := fresh.CheckStreams(); err != nil {
		t.Fatalf("full-length CheckStreams: %v", err)
	}
	if _, err := fresh.RunChecked(); err != nil {
		t.Fatalf("full-length RunChecked: %v", err)
	}
}
