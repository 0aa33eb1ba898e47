package sim

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"pvsim/internal/sms"
	"pvsim/internal/timing"
	"pvsim/internal/workloads"
	"pvsim/pv"
)

// TestRebuildBitIdentical pins System.Rebuild, the system pool's
// cross-config reuse: next rebuilt around the hierarchy of a system that
// has already run prev must produce exactly NewSystem(next)'s Result. The
// pairs cross every hierarchy knob a build sets (PV ranges, on-chip-only
// PV, bank contention) and every hook it installs (L1D evictions, PV
// drops, phase-edge flushes).
func TestRebuildBitIdentical(t *testing.T) {
	w, err := workloads.ByName("Apache")
	if err != nil {
		t.Fatal(err)
	}
	small := func() Config {
		cfg := Default(w)
		cfg.Warmup, cfg.Measure = 5_000, 5_000
		return cfg
	}
	withTiming := func(cfg Config) Config {
		cfg.Timing, cfg.Windows = true, 5
		return cfg
	}
	withSmallL2 := func(cfg Config) Config {
		cfg.Hier.L2.SizeBytes = 256 << 10 // PV lines get evicted, so drops happen
		return cfg
	}

	pv8OnChip := withTiming(withSmallL2(small()))
	pv8OnChip.Prefetch = PV8
	pv8OnChip.Prefetch.OnChipOnly = true
	baseline := withSmallL2(small())

	dedicated := withTiming(small())
	dedicated.Prefetch = SMS1K11
	pv8Cost := small()
	pv8Cost.Prefetch = PV8
	pv8Cost.Cost = timing.Config{Enabled: true}

	phm, err := workloads.ParseMix("DB2@700+Apache@900")
	if err != nil {
		t.Fatal(err)
	}
	phCores, err := phm.ForCores(4)
	if err != nil {
		t.Fatal(err)
	}
	phased := small()
	phased.Prefetch = PV8
	phased.Cores = phCores
	phased.PhaseFlush = true
	stridePV := small()
	stridePV.Prefetch = StridePV8

	for _, c := range []struct {
		name       string
		prev, next Config
	}{
		{"pv8-onchip-timing/baseline", pv8OnChip, baseline},
		{"baseline/pv8-onchip-timing", baseline, pv8OnChip},
		{"dedicated-timing/pv8-cost", dedicated, pv8Cost},
		{"phased-flush/stride-pv8", phased, stridePV},
		{"pv8-cost/pv8-cost", pv8Cost, pv8Cost},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := NewSystem(c.next).Run()
			prev := NewSystem(c.prev)
			prev.Run()
			sys := prev.Rebuild(c.next)
			if sys.Hier != prev.Hier {
				t.Fatal("Rebuild allocated a new hierarchy")
			}
			if got := sys.Run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("rebuilt system diverges from a fresh one:\n%+v\nvs\n%+v", got, want)
			}
		})
	}
}

// wiringConfigs covers every prefetcher wiring the system supports, plus
// the knobs (timing, shared table, on-chip-only) that route state
// differently.
func wiringConfigs(t *testing.T) map[string]Config {
	t.Helper()
	w, err := workloads.ByName("Apache")
	if err != nil {
		t.Fatal(err)
	}
	small := func() Config {
		cfg := Default(w)
		cfg.Warmup, cfg.Measure = 5_000, 5_000
		return cfg
	}
	cfgs := map[string]Config{}

	base := small()
	cfgs["baseline"] = base

	ded := small()
	ded.Prefetch = SMS1K11
	cfgs["dedicated"] = ded

	inf := small()
	inf.Prefetch = SMSInfinite
	cfgs["infinite"] = inf

	pv8 := small()
	pv8.Prefetch = PV8
	cfgs["pv8"] = pv8

	shared := small()
	shared.Prefetch = PV8
	shared.Prefetch.SharedTable = true
	cfgs["pv8-shared"] = shared

	onchip := small()
	onchip.Prefetch = PV8
	onchip.Prefetch.OnChipOnly = true
	onchip.Hier.L2.SizeBytes = 256 << 10
	cfgs["pv8-onchip-only"] = onchip

	stridePV := small()
	stridePV.Prefetch = StridePV8
	cfgs["stride-pv"] = stridePV

	btbDed := small()
	btbDed.Prefetch = pv.Spec{Name: "btb", Mode: pv.Dedicated, Sets: 512, Ways: 4}
	cfgs["btb-dedicated"] = btbDed

	btbPV := small()
	btbPV.Prefetch = pv.Spec{Name: "btb", Mode: pv.Virtualized, Sets: 512, Ways: 4, PVCacheEntries: 8}
	cfgs["btb-pv"] = btbPV

	timing := small()
	timing.Prefetch = PV8
	timing.Timing = true
	timing.Windows = 5
	cfgs["pv8-timing"] = timing

	// Scenario wirings: a heterogeneous mix and a phased stream with the
	// context-switch flush — both route per-core state the homogeneous
	// configs never touch.
	mix, err := workloads.ParseMix("DB2/DB2/Apache/Apache")
	if err != nil {
		t.Fatal(err)
	}
	mixCores, err := mix.ForCores(4)
	if err != nil {
		t.Fatal(err)
	}
	het := small()
	het.Prefetch = PV8
	het.Cores = mixCores
	cfgs["mix-pv8"] = het

	phm, err := workloads.ParseMix("DB2@700+Apache@900")
	if err != nil {
		t.Fatal(err)
	}
	phCores, err := phm.ForCores(4)
	if err != nil {
		t.Fatal(err)
	}
	phased := small()
	phased.Prefetch = PV8
	phased.Cores = phCores
	phased.PhaseFlush = true
	cfgs["phased-pv8-flush"] = phased

	return cfgs
}

// TestSystemResetBitIdentical pins the one way a retained system is reset
// for another run, System.Rebuild, on every wiring: each config runs on a
// system of its geometry that has already run its neighbour in name order,
// then once more rebuilt from itself, and both runs must reproduce a fresh
// system's Result exactly. It is also the aliasing guard for buffer reuse:
// the first Result must still equal the fresh one after the second run on
// the same hierarchy.
func TestSystemResetBitIdentical(t *testing.T) {
	cfgs := wiringConfigs(t)
	names := slices.Sorted(maps.Keys(cfgs))
	for i, name := range names {
		next := cfgs[name]
		prev := cfgs[names[(i+1)%len(names)]]
		prev.Hier = next.Hier
		t.Run(name, func(t *testing.T) {
			fresh := Run(next)

			donor := NewSystem(prev)
			donor.Run()
			sys := donor.Rebuild(next)
			first := sys.Run()
			if !reflect.DeepEqual(fresh, first) {
				t.Fatalf("system rebuilt from another config diverges from a fresh one:\n%+v\nvs\n%+v", first, fresh)
			}

			again := sys.Rebuild(next)
			if again.Hier != donor.Hier {
				t.Fatal("Rebuild allocated a new hierarchy")
			}
			second := again.Run()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("system rebuilt from itself diverges from its first run:\n%+v\nvs\n%+v", second, first)
			}
			// first must still equal fresh: the second run reused the
			// hierarchy's buffers and must not have written through them
			// into the earlier Result.
			if !reflect.DeepEqual(fresh, first) {
				t.Fatalf("second run mutated the first Result (aliasing): %+v", first)
			}
		})
	}
}

// TestSystemResetEngineInvariants runs a PV system, rebuilds it for the
// same config and runs it again, then checks the SMS engines' and proxies'
// internal index consistency, reaching them through the family's adapter
// type.
func TestSystemResetEngineInvariants(t *testing.T) {
	w, err := workloads.ByName("DB2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(w)
	cfg.Warmup, cfg.Measure = 3_000, 3_000
	cfg.Prefetch = PV8
	sys := NewSystem(cfg)
	sys.Run()
	sys = sys.Rebuild(cfg)
	sys.Run()
	for c := 0; c < sys.Hier.Config().Cores; c++ {
		inst, ok := sys.Predictor(c).(*sms.Instance)
		if !ok {
			t.Fatalf("core %d predictor is %T, want *sms.Instance", c, sys.Predictor(c))
		}
		if err := inst.Engine().CheckInvariants(); err != nil {
			t.Fatalf("core %d after rebuild+rerun: %v", c, err)
		}
		if err := inst.VPHT().Proxy().CheckInvariants(); err != nil {
			t.Fatalf("core %d proxy after rebuild+rerun: %v", c, err)
		}
	}
}
