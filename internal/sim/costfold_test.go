package sim

import (
	"testing"

	pvcore "pvsim/internal/core"
	"pvsim/internal/timing"
	"pvsim/internal/trace"
	"pvsim/internal/workloads"
	"pvsim/pv"
)

// TestProxyFoldMatchesPerStepFold pins the cost fold of the PVProxy
// counters, which runs only at run boundaries: the warmup ResetStats, a
// PhaseFlush phase edge and the end of Run. Every PV field of Result.Cost
// must equal a reference that folds every core's proxy movement after
// every step of the same run. A dropped edge fold loses the replaced
// instance's movement, and a dropped end-of-run fold loses the whole
// measured phase's, so either fails here.
func TestProxyFoldMatchesPerStepFold(t *testing.T) {
	steady := quickConfig(t, "Apache")
	steady.Prefetch = PV8

	// The ctx-switch mix with phases short enough to cross several edges
	// in warmup and in the measured phase.
	m, err := workloads.MixByName("ctx-switch")
	if err != nil {
		t.Fatal(err)
	}
	flush := steady
	flush.Cores = make([]workloads.CoreTrace, len(m.Cores))
	for c, ct := range m.Cores {
		ct.Phases = append([]trace.Phase(nil), ct.Phases...)
		for i := range ct.Phases {
			ct.Phases[i].Accesses = 3_000
		}
		flush.Cores[c] = ct
	}
	flush.PhaseFlush = true

	onChip := steady
	onChip.Prefetch.OnChipOnly = true

	for name, cfg := range map[string]Config{"steady": steady, "ctx-switch flush": flush, "on-chip-only": onChip} {
		t.Run(name, func(t *testing.T) {
			cfg.Cost = timing.Config{Enabled: true}
			got := Run(cfg).Cost
			want := perStepProxyFold(cfg)
			for c := range got.Core {
				g, w := pvPart(got.Core[c]), pvPart(want.Core(c))
				if w.PVLookups == 0 {
					t.Fatalf("core %d folded no PVProxy lookups; the comparison is vacuous", c)
				}
				if g != w {
					t.Errorf("core %d: boundary fold %+v != per-step fold %+v", c, g, w)
				}
			}
		})
	}
}

// perStepProxyFold plays Run's schedule on a fresh system of cfg and, after
// every step, folds every core's PVProxy movement since the previous step
// into a model of its own. A phase edge that rebuilt a core's predictor
// shows as a new counters pointer: the old instance's last movement is
// folded, and the new instance's counts from zero.
func perStepProxyFold(cfg Config) *timing.Model {
	sys := NewSystem(cfg)
	n := len(sys.gens)
	ref := timing.NewModel(sys.tm.Report().Params, n)
	live := make([]*pvcore.ProxyStats, n)
	prev := make([]pvcore.ProxyStats, n)
	foldAll := func() {
		for c := range live {
			ps := sys.Predictor(c).(pv.Virtualizable).ProxyStats()
			if ps != live[c] {
				if live[c] != nil {
					ref.OnPV(c, timing.PVDelta(prev[c], *live[c]))
				}
				live[c], prev[c] = ps, pvcore.ProxyStats{}
			}
			ref.OnPV(c, timing.PVDelta(prev[c], *ps))
			prev[c] = *ps
		}
	}
	round := func() {
		for c := 0; c < n; c++ {
			sys.Step(c)
			foldAll()
		}
	}

	foldAll()
	for i := 0; i < cfg.Warmup; i++ {
		round()
	}
	sys.ResetStats()
	ref.Reset()
	for c := range live {
		prev[c] = *live[c]
	}
	// Run's measured schedule: Measure/Windows rounds per window (at least
	// one window of at least one round).
	windows := max(cfg.Windows, 1)
	for i := 0; i < windows*max(cfg.Measure/windows, 1); i++ {
		round()
	}
	return ref
}

// pvPart keeps the PVProxy fields of a core's cost counters.
func pvPart(c timing.Counters) timing.Counters {
	return timing.Counters{
		PVLookups: c.PVLookups, PVMisses: c.PVMisses, PVStalls: c.PVStalls, PVInvalidations: c.PVInvalidations,
		PVHitCycles: c.PVHitCycles, PVMissCycles: c.PVMissCycles, PVStallCycles: c.PVStallCycles, PVBusCycles: c.PVBusCycles,
	}
}
