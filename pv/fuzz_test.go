package pv_test

import (
	"testing"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
	"pvsim/pv"

	_ "pvsim/pv/predictors" // register the built-in predictor families
)

// fuzzBackend serves PV fetches/writebacks with zero latency (the same
// stub the conformance suite builds against).
type fuzzBackend struct{}

func (fuzzBackend) Read(memsys.Addr) memsys.Result  { return memsys.Result{Level: memsys.LevelMem} }
func (fuzzBackend) Write(memsys.Addr) memsys.Result { return memsys.Result{Level: memsys.LevelMem} }

type fuzzSink struct{ n int }

func (s *fuzzSink) Prefetch(memsys.Addr, uint64) { s.n++ }

// FuzzSpecValidate pins the pv.Spec contract from both sides:
//
//  1. Validate (and Label) never panic, whatever raw values a config file
//     or API request carries — unknown names, absurd geometry, unknown
//     modes all return errors, not crashes.
//  2. Any spec Validate and ValidateBlock (at the Env's 64-byte L2 block,
//     the check sim.Config.Validate makes) accept can actually be built:
//     builder.New must succeed and hand back a usable instance (geometry
//     is clamped to allocation-sane ranges first; acceptance is what is
//     under test, not the OOM killer). A virtualized set too wide for the
//     block is a validation error, and New returns it rather than panic.
func FuzzSpecValidate(f *testing.F) {
	f.Add("sms", uint8(0), 1024, 11, 8, false, false)
	f.Add("sms", uint8(2), 1024, 11, 8, true, true)
	f.Add("stride", uint8(2), 1024, 4, 8, false, false)
	f.Add("btb", uint8(0), 512, 4, 8, false, false)
	f.Add("", uint8(0), 0, 0, 0, false, false)
	f.Add("no-such-family", uint8(7), -3, 1<<30, -1, true, false)
	f.Fuzz(func(t *testing.T, name string, mode uint8, sets, ways, pvcache int, onChip, shared bool) {
		raw := pv.Spec{
			Name: name, Mode: pv.Mode(mode),
			Sets: sets, Ways: ways, PVCacheEntries: pvcache,
			OnChipOnly: onChip, SharedTable: shared,
		}
		_ = raw.Validate() // must not panic on anything
		_ = raw.Label()    // ditto

		// Clamp to buildable magnitudes and retry: whatever Validate now
		// accepts, New must build.
		clamped := raw
		clamped.Mode = pv.Mode(mode % 3)
		clamped.Sets = 1 + abs(sets)%2048
		clamped.Ways = 1 + abs(ways)%32
		clamped.PVCacheEntries = 1 + abs(pvcache)%64
		if err := clamped.Validate(); err != nil {
			return // rejected is fine; rejecting by panic is not
		}
		if !clamped.Enabled() {
			return // the empty spec is the baseline: valid, nothing to build
		}
		b, ok := pv.Lookup(clamped.Name)
		if !ok {
			t.Fatalf("spec %+v validated but its family is not registered", clamped)
		}
		var pcfg = pv.Env{}.Proxy
		if clamped.Mode == pv.Virtualized {
			pcfg, _ = pv.ProxyConfigFor(clamped, clamped.Name+".fuzz")
		}
		env := pv.Env{
			Core: 0, Cores: 1, Seed: 42,
			L1BlockBytes: 64, L2BlockBytes: 64,
			Start: pv.TableStart(0), Proxy: pcfg,
			Backend: fuzzBackend{}, Sink: &fuzzSink{},
			Shared: map[string]any{},
		}
		if blockErr := clamped.ValidateBlock(env.L2BlockBytes); blockErr != nil {
			if _, err := b.New(clamped, env); err == nil {
				t.Fatalf("ValidateBlock rejected %s (%v) but New built it", clamped.Label(), blockErr)
			}
			return
		}
		inst, err := b.New(clamped, env)
		if err != nil {
			t.Fatalf("Validate accepted %s (%+v) but New failed: %v", clamped.Label(), clamped, err)
		}
		if inst == nil {
			t.Fatalf("New returned a nil instance for %s", clamped.Label())
		}
		// The instance must be minimally usable: observe, snapshot, and
		// zero its statistics. sim.System.ResetStats relies on the last
		// after warmup: every counter, the PVProxy's included, reads zero.
		for i := 0; i < 8; i++ {
			inst.OnAccess(uint64(i), 0x1000, memsys.Addr(0x10_0000+i*64))
		}
		inst.OnEvict(8, 0x10_0000)
		_ = inst.Stats()
		inst.ResetStats()
		for _, g := range inst.Stats().Groups {
			for _, c := range g.Counters {
				if c.Value != 0 {
					t.Errorf("%s: %s.%s = %d after ResetStats", clamped.Label(), g.Name, c.Name, c.Value)
				}
			}
		}
		if v, ok := inst.(pv.Virtualizable); ok {
			if ps := v.ProxyStats(); ps != nil && *ps != (core.ProxyStats{}) {
				t.Errorf("%s: proxy stats %+v after ResetStats", clamped.Label(), *ps)
			}
		}
	})
}

func abs(n int) int {
	if n < 0 {
		if n == -9223372036854775808 { // -MinInt negates to itself
			return 0
		}
		return -n
	}
	return n
}
