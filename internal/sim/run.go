package sim

import (
	pvcore "pvsim/internal/core"
	"pvsim/internal/cpu"
	"pvsim/internal/memsys"
	"pvsim/internal/stats"
	"pvsim/internal/timing"
	"pvsim/pv"
)

// Result carries everything the experiments need from one run.
type Result struct {
	Config Config

	// Mem holds hierarchy statistics for the measured phase only.
	Mem memsys.Stats

	// Predictors holds one statistics snapshot per core (nil for the
	// no-prefetch baseline). The snapshots are generic — named counter
	// groups — so a new predictor family reports through them with no
	// changes here.
	Predictors []pv.Stats

	// Proxies holds per-core PVProxy statistics (virtualized runs only).
	Proxies []pvcore.ProxyStats

	// EffectiveProxy is the PVProxy configuration actually built for
	// virtualized runs — after the MSHR/evict-buffer clamping that keeps
	// tiny PVCaches valid — and ProxyClamped reports whether that clamping
	// changed the default shape. Zero/false otherwise.
	EffectiveProxy pvcore.ProxyConfig
	ProxyClamped   bool

	// Timing results (zero for functional runs).
	Instrs    float64
	Cycles    float64 // max across cores (total elapsed)
	IPC       float64 // aggregate: total instructions / elapsed cycles
	WindowIPC []float64

	// Cost is the cycle-approximate cost model's accounting for the
	// measured phase — per-core cycle counters with the PVCache hit/miss
	// and MSHR-stall penalties broken out, next to the generic predictor
	// stats above. Zero (Cost.Enabled() == false) unless Config.Cost
	// enabled the model.
	Cost timing.Report
}

// L1DReadMisses sums demand read misses across cores.
func (r *Result) L1DReadMisses() uint64 {
	var t uint64
	for _, c := range r.Mem.Core {
		t += c.L1DReadMisses
	}
	return t
}

// L1DReads sums demand reads across cores.
func (r *Result) L1DReads() uint64 {
	var t uint64
	for _, c := range r.Mem.Core {
		t += c.L1DReads
	}
	return t
}

// PrefetchUnused sums overpredicted (never-used) prefetches across cores.
func (r *Result) PrefetchUnused() uint64 {
	var t uint64
	for _, c := range r.Mem.Core {
		t += c.PrefetchUnused
	}
	return t
}

// PrefetchIssued sums issued prefetch requests across cores.
func (r *Result) PrefetchIssued() uint64 {
	var t uint64
	for _, c := range r.Mem.Core {
		t += c.PrefetchIssued
	}
	return t
}

// CoveredMisses sums demand reads served by prefetched lines.
func (r *Result) CoveredMisses() uint64 {
	var t uint64
	for _, c := range r.Mem.Core {
		t += c.L1DPrefetchHits
	}
	return t
}

// PredictorCounter sums one named predictor counter (group/name, see
// pv.Stats) across cores.
func (r *Result) PredictorCounter(group, name string) uint64 {
	var t uint64
	for _, p := range r.Predictors {
		t += p.Counter(group, name)
	}
	return t
}

// ProxyTotals sums PVProxy statistics across cores.
func (r *Result) ProxyTotals() pvcore.ProxyStats {
	var t pvcore.ProxyStats
	for _, p := range r.Proxies {
		t.Lookups += p.Lookups
		t.Hits += p.Hits
		t.Misses += p.Misses
		t.InFlightMerges += p.InFlightMerges
		t.MSHRStalls += p.MSHRStalls
		t.Fetches += p.Fetches
		t.FilledByL2 += p.FilledByL2
		t.FilledByMem += p.FilledByMem
		t.Writebacks += p.Writebacks
		t.CleanEvictions += p.CleanEvictions
		t.Invalidations += p.Invalidations
	}
	return t
}

// Run executes one configuration: warmup, stats reset, measured phase.
func Run(cfg Config) Result {
	return NewSystem(cfg).Run()
}

// Run executes the system's configured phases — warmup, stats reset,
// measured windows — and collects a Result. It must start from pristine
// microarchitectural state: call it once on a system NewSystem or Rebuild
// returned. The per-window snapshot buffers live on the System,
// so the measurement loop itself allocates nothing.
func (sys *System) Run() Result {
	cfg := sys.cfg
	sys.StepAllN(cfg.Warmup)
	sys.ResetStats()

	n := len(sys.gens)
	windows := cfg.Windows
	if windows <= 0 {
		windows = 1
	}
	perWindow := cfg.Measure / windows
	if perWindow == 0 {
		perWindow = 1
	}

	snapshotsInto(sys, sys.snapStart)
	copy(sys.snapPrev, sys.snapStart)
	windowIPC := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		sys.StepAllN(perWindow)
		if cfg.Timing {
			snapshotsInto(sys, sys.snapCur)
			var instr, cyc float64
			for c := 0; c < n; c++ {
				instr += sys.snapCur[c].Instrs - sys.snapPrev[c].Instrs
				w := sys.snapCur[c].Cycles - sys.snapPrev[c].Cycles
				if w > cyc {
					cyc = w
				}
			}
			if cyc > 0 {
				windowIPC = append(windowIPC, instr/cyc)
			}
			copy(sys.snapPrev, sys.snapCur)
		}
	}

	res := Result{Config: cfg, WindowIPC: windowIPC}
	sys.foldProxies()       // the PVProxy counters, folded once per run
	collectStats(sys, &res) // fills Mem with a deep copy
	if cfg.Timing {
		snapshotsInto(sys, sys.snapCur)
		for c := 0; c < n; c++ {
			res.Instrs += sys.snapCur[c].Instrs - sys.snapStart[c].Instrs
			cyc := sys.snapCur[c].Cycles - sys.snapStart[c].Cycles
			if cyc > res.Cycles {
				res.Cycles = cyc
			}
		}
		if res.Cycles > 0 {
			res.IPC = res.Instrs / res.Cycles
		}
	}
	return res
}

// collectStats copies predictor/proxy statistics from a finished system
// into res through the pv contract alone. Everything is deep-copied: the
// system's hierarchy may be rebuilt and reused after the Result escapes,
// so the Result must not alias live simulator state.
func collectStats(sys *System, res *Result) {
	res.Mem = sys.Hier.Stats
	res.Mem.Core = append([]memsys.CoreStats(nil), sys.Hier.Stats.Core...)
	if sys.tm != nil {
		res.Cost = sys.tm.Report() // deep copy: Report clones the counters
	}
	if !sys.cfg.Prefetch.Enabled() {
		return
	}
	n := len(sys.gens)
	res.Predictors = make([]pv.Stats, n)
	for c := 0; c < n; c++ {
		res.Predictors[c] = sys.preds[c].Stats()
	}
	if sys.cfg.Prefetch.Mode == pv.Virtualized {
		res.Proxies = make([]pvcore.ProxyStats, n)
		for c := 0; c < n; c++ {
			if v, ok := sys.preds[c].(pv.Virtualizable); ok {
				if ps := v.ProxyStats(); ps != nil {
					res.Proxies[c] = *ps
				}
			}
		}
		res.EffectiveProxy, res.ProxyClamped = sys.EffectiveProxyConfig()
	}
}

// snapshotsInto fills out with every core's (instrs, cycles) accumulators;
// out must have one slot per core.
func snapshotsInto(sys *System, out []cpu.Snapshot) {
	for c := range out {
		out[c] = sys.cores[c].Snapshot()
	}
}

// Coverage is the Figure 4 metric set for one (workload, prefetcher) pair,
// expressed as fractions of the *baseline* L1 read misses.
type Coverage struct {
	Label          string
	Covered        float64 // misses eliminated by prefetching
	Uncovered      float64 // misses remaining
	Overpredicted  float64 // prefetched blocks evicted/invalidated unused
	BaselineMisses uint64
}

// CoverageOf compares a prefetched run against its matched baseline.
// Covered is computed as net eliminated misses (baseline - remaining), so
// prefetch-induced pollution subtracts from coverage, as it should.
func CoverageOf(baseline, run Result) Coverage {
	b := float64(baseline.L1DReadMisses())
	c := Coverage{Label: run.Config.Prefetch.Label(), BaselineMisses: baseline.L1DReadMisses()}
	if b == 0 {
		return c
	}
	remaining := float64(run.L1DReadMisses())
	c.Covered = (b - remaining) / b
	if c.Covered < 0 {
		c.Covered = 0
	}
	c.Uncovered = remaining / b
	c.Overpredicted = float64(run.PrefetchUnused()) / b
	return c
}

// SpeedupOver returns the matched-pair aggregate speedup of run over
// baseline with a 95% CI over sampling windows.
func SpeedupOver(baseline, run Result) (stats.Interval, error) {
	return stats.MatchedPairSpeedup(baseline.WindowIPC, run.WindowIPC)
}
