package sim

import (
	"reflect"
	"testing"

	"pvsim/internal/timing"
	"pvsim/internal/workloads"
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
