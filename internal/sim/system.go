package sim

import (
	"fmt"
	"log"

	pvcore "pvsim/internal/core"
	"pvsim/internal/cpu"
	"pvsim/internal/memsys"
	"pvsim/internal/timing"
	"pvsim/internal/trace"
	"pvsim/pv"
)

// System is one fully-wired CMP: generators, hierarchy, one pv.Instance
// per core (nil without a prefetcher) and per-core timing models. The
// system knows nothing about any concrete predictor family — every family
// the pv registry holds, including third-party ones, runs through the
// same wiring.
type System struct {
	cfg  Config
	Hier *memsys.Hierarchy
	// gens holds each core's access stream: a plain *trace.Generator for
	// steady (single-phase) cores, a *trace.Phased for cores whose workload
	// switches at access-count boundaries. Heterogeneous mixes give
	// different cores different parameter sets through Config.Cores.
	gens  []trace.Source
	preds []pv.Instance // nil entries when Prefetch is the baseline
	cores []*cpu.Core
	clock []uint64
	// inflight tracks outstanding prefetch completion times per core for
	// timeliness modeling (timing runs only), keyed by block address. A
	// record exists only for a block a prefetch filled and no demand
	// access has used yet (see Step).
	inflight []memsys.AddrTable[memsys.Addr, uint64]

	// proxyCfg/proxyClamped record the effective PVProxy configuration
	// (after MSHR/evict-buffer clamping) for virtualized runs, so reports
	// can show what was actually built rather than what was asked for.
	proxyCfg     pvcore.ProxyConfig
	proxyClamped bool

	// snapStart/snapPrev/snapCur are the per-core snapshot buffers Run
	// reuses across measurement windows (and across runs on a reused
	// system), so windowed timing collection allocates nothing.
	snapStart, snapPrev, snapCur []cpu.Snapshot

	// tm is the passive cost model (nil unless cfg.Cost.Enabled). Step
	// folds each access's demand/fetch serving levels into it. A core's
	// PVProxy counters are folded whole, only where they stop counting:
	// at a PhaseFlush phase edge, before the rebuild replaces them, and at
	// the end of Run (foldProxy). That equals folding them step by step:
	// OnPV is linear, the counters restart from zero only where tm does
	// (ResetStats) or right after a fold, and only collectStats reads tm.
	// proxyLive holds each core's live PVProxy statistics pointer (nil for
	// dedicated/baseline cores).
	tm        *timing.Model
	proxyLive []*pvcore.ProxyStats
}

// prefetchSink routes one core's predictions into the hierarchy and the
// in-flight table.
type prefetchSink struct {
	sys  *System
	core int
}

// Prefetch implements pv.Sink.
func (s prefetchSink) Prefetch(addr memsys.Addr, availableAt uint64) {
	sys := s.sys
	res, issued := sys.Hier.Prefetch(s.core, addr)
	if !issued || !sys.cfg.Timing {
		// In-flight completion times matter only to timing runs, and only
		// timing steps consume (and prune) the table.
		return
	}
	now := sys.clock[s.core]
	start := availableAt
	if now > start {
		start = now
	}
	block := sys.Hier.L1D(s.core).BlockAddr(addr)
	sys.inflight[s.core].Put(block, start+res.Latency)
}

// NewSystem builds and wires a system; it panics on invalid configuration
// (configs come from code, not user input).
func NewSystem(cfg Config) *System { return build(cfg, nil) }

// Rebuild builds and wires cfg's system around s's hierarchy, retargeted
// to cfg, instead of allocating new cache arrays: the result is
// bit-identical to NewSystem(cfg). cfg must share s's hierarchy geometry
// (memsys.Config.Geometry of Config.Hier); s must not be used afterwards.
// The system pool (experiments.Runner) rebuilds retained systems this way.
func (s *System) Rebuild(cfg Config) *System { return build(cfg, s.Hier) }

// build wires cfg's system, building a hierarchy when hier is nil and
// retargeting hier to cfg otherwise.
func build(cfg Config, hier *memsys.Hierarchy) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	hcfg := cfg.Hier
	hcfg.PVRanges = cfg.Prefetch.PVRanges(hcfg.Cores, hcfg.L2.BlockBytes)
	hcfg.OnChipOnlyPV = cfg.Prefetch.OnChipOnly
	// Bank arbitration needs a advancing clock; timing runs provide one.
	hcfg.ModelBankContention = cfg.Timing && hcfg.L2Banks > 0
	if hier == nil {
		hier = memsys.New(hcfg)
	} else {
		hier.Retarget(hcfg)
	}

	n := hcfg.Cores
	sys := &System{
		cfg:       cfg,
		Hier:      hier,
		gens:      make([]trace.Source, n),
		preds:     make([]pv.Instance, n),
		cores:     make([]*cpu.Core, n),
		clock:     make([]uint64, n),
		inflight:  make([]memsys.AddrTable[memsys.Addr, uint64], n),
		snapStart: make([]cpu.Snapshot, n),
		snapPrev:  make([]cpu.Snapshot, n),
		snapCur:   make([]cpu.Snapshot, n),
	}
	if cfg.Cost.Enabled {
		params := cfg.Cost.Params
		if !params.Enabled() {
			params = timing.DefaultParams(hcfg)
		}
		sys.tm = timing.NewModel(params, n)
		sys.proxyLive = make([]*pvcore.ProxyStats, n)
	}

	var builder pv.Builder
	if cfg.Prefetch.Enabled() {
		builder, _ = pv.Lookup(cfg.Prefetch.Name) // Validate vouched for it
		if cfg.Prefetch.Mode == pv.Virtualized {
			var clamped bool
			sys.proxyCfg, clamped = pv.ProxyConfigFor(cfg.Prefetch, cfg.Prefetch.Name)
			if clamped {
				sys.proxyClamped = true
				log.Printf("sim: %s PVProxy clamped to %d MSHRs / %d evict-buffer entries to fit a %d-entry PVCache",
					cfg.Prefetch.Label(), sys.proxyCfg.MSHRs, sys.proxyCfg.EvictBufEntries, sys.proxyCfg.CacheEntries)
			}
		}
	}

	shared := map[string]any{}
	for c := 0; c < n; c++ {
		phases := cfg.phasesFor(c)
		var phased *trace.Phased
		if len(phases) == 1 {
			sys.gens[c] = trace.NewGenerator(phases[0].Params, cfg.Seed, c)
		} else {
			phased = trace.NewPhased(phases, cfg.Seed, c)
			sys.gens[c] = phased
		}
		sys.inflight[c] = memsys.NewAddrTable[memsys.Addr, uint64](inflightHint)
		// The CPI accounting ratios are per-core constants taken from the
		// core's first phase: phase switches change the access stream, not
		// the timing model's instruction mix.
		sys.cores[c] = cpu.New(cpu.Config{
			MemRatio:    phases[0].Params.MemRatio,
			MLP:         phases[0].Params.MLP,
			L1Latency:   hcfg.L1Latency,
			FrontEndMLP: 2,
		})
		if builder == nil {
			continue
		}

		env := pv.Env{
			Core:         c,
			Cores:        n,
			Seed:         cfg.Seed,
			Timing:       cfg.Timing,
			L1BlockBytes: hcfg.L1D.BlockBytes,
			L2BlockBytes: hcfg.L2.BlockBytes,
			Start:        pv.TableStart(c),
			Backend:      pvcore.HierarchyBackend{H: sys.Hier},
			Sink:         prefetchSink{sys: sys, core: c},
			Shared:       shared,
		}
		if cfg.Prefetch.SharedTable {
			env.Start = pv.TableStart(0)
		}
		if cfg.Prefetch.Mode == pv.Virtualized {
			env.Proxy, _ = pv.ProxyConfigFor(cfg.Prefetch, fmt.Sprintf("%s.%d", cfg.Prefetch.Name, c))
		}
		sys.newPredictor(c, builder, env)
		if phased != nil && cfg.PhaseFlush {
			// Context-switch model: the OS discards this core's predictor
			// state — engine, tables, and (virtualized) the backing PVTable —
			// at every phase edge, so the core restarts on a freshly built
			// instance: exactly a cold start. The cost fold takes the old
			// instance's proxy counters first; the new instance's count
			// from zero, so flush-run cost accounting stays exact.
			phased.SetEdgeHook(func(int) {
				sys.foldProxy(c)
				sys.newPredictor(c, builder, env)
			})
		}
	}

	if cfg.Prefetch.OnChipOnly && cfg.Prefetch.Mode == pv.Virtualized && cfg.Prefetch.Enabled() {
		sys.Hier.SetPVDropHook(func(addr memsys.Addr) {
			for _, p := range sys.preds {
				if v, ok := p.(pv.Virtualizable); ok && v.Drop(addr) {
					return
				}
			}
		})
	}
	return sys
}

// newPredictor builds core c's predictor in env and wires it in: the
// predictor slot, the L1D eviction hook and the cost fold's live PVProxy
// counters. build calls it once per core; a PhaseFlush phase edge calls it
// again to replace the core's instance with a cold one.
func (s *System) newPredictor(c int, b pv.Builder, env pv.Env) {
	inst, err := b.New(s.cfg.Prefetch, env)
	if err != nil {
		panic(err)
	}
	s.preds[c] = inst
	if v, ok := inst.(pv.Virtualizable); ok && s.tm != nil {
		s.proxyLive[c] = v.ProxyStats()
	}
	s.Hier.SetL1DEvictHook(c, func(addr memsys.Addr, _ memsys.EvictCause) {
		inst.OnEvict(s.clock[c], addr)
	})
}

// Predictor returns core c's predictor instance (nil without one). Callers
// that need family internals type-assert to the family's adapter, e.g.
// *sms.Instance.
func (s *System) Predictor(c int) pv.Instance { return s.preds[c] }

// EffectiveProxyConfig returns the PVProxy configuration actually built
// (after clamping) and whether clamping changed the default shape; the
// zero config for non-virtualized runs.
func (s *System) EffectiveProxyConfig() (pvcore.ProxyConfig, bool) {
	return s.proxyCfg, s.proxyClamped
}

// Core returns core c's timing model.
func (s *System) Core(c int) *cpu.Core { return s.cores[c] }

// foldProxies folds every core's PVProxy counters into the cost model.
// Run calls it once, before collecting stats, so the fold's totals
// conserve exactly against the final ProxyStats counters (internal/simtest
// pins this).
func (s *System) foldProxies() {
	if s.tm == nil {
		return
	}
	for c := range s.proxyLive {
		s.foldProxy(c)
	}
}

// foldProxy folds core c's PVProxy counters whole: everything they
// counted since the core's predictor was built or the warmup ResetStats
// zeroed them, work other cores' steps triggered on this proxy (e.g. an
// invalidation) included. The caller must not fold the same counts again:
// the phase-edge flush hook replaces the instance, and with it the
// counters, right after.
func (s *System) foldProxy(c int) {
	if s.tm == nil {
		return
	}
	if live := s.proxyLive[c]; live != nil {
		s.tm.OnPV(c, timing.PVDelta(pvcore.ProxyStats{}, *live))
	}
}

// Step advances core c by one memory instruction: instruction fetch, demand
// access, timing accounting and predictor training.
func (s *System) Step(c int) {
	acc := s.gens[c].Next()
	now := s.clock[c]
	s.Hier.Tick(now)

	fres := s.Hier.Fetch(c, acc.PC)
	res := s.Hier.Data(c, acc.Addr, acc.Write)

	if s.cfg.Timing {
		// Only a prefetch that fills an absent block puts a record, and
		// the first demand access to the block takes it: an L1D hit that
		// Data reports as a PrefetchUse, or a miss if the line was evicted
		// unused. Any other L1D hit has no record to take.
		var extra uint64
		if res.Level != memsys.LevelL1 || res.PrefetchUse {
			block := s.Hier.L1D(c).BlockAddr(acc.Addr)
			if ready, ok := s.inflight[c].Delete(block); ok && ready > now {
				extra = ready - now // prefetch was late: pay the residual
			}
		}
		core := s.cores[c]
		core.OnFetch(fres.Latency)
		core.OnAccess(res.Latency, extra)
		s.clock[c] = uint64(core.Cycles())
		if s.inflight[c].Len() > inflightHint {
			s.pruneInflight(c)
		}
	}

	if p := s.preds[c]; p != nil {
		p.OnAccess(s.clock[c], acc.PC, acc.Addr)
	}

	if s.tm != nil {
		// The passive cost fold of demand/fetch outcomes by serving level.
		// Unlike the IPC model it is not gated on cfg.Timing: every step
		// computes its outcome either way. It stays per step because
		// OnAccess divides per event and truncates. The PVProxy counters
		// are folded at run boundaries instead (see System.tm).
		s.tm.OnAccess(c, fres.Level, res.Level)
	}
}

// inflightHint presizes each core's in-flight table and is the record
// count past which completed records are pruned. A timing run has at most
// a few dozen prefetches still in flight per core (72 at -scale 0.25 over
// all eight workloads with 1K-11a, 16-11a, stride-1K and PV-8), so
// pruning keeps the table at its presized cells and the probe chains of
// Step's deletes (on L1D misses and first uses of a prefetched line)
// short. More than inflightHint records in flight at once would
// prune on every step, and more than twice as many would grow the table;
// both cost time only, never a result.
const inflightHint = 256

// pruneInflight drops completed prefetch records to bound memory. Dropping
// them changes no result: a record whose ready time has passed adds no
// late-prefetch penalty when its block is demanded, found or not.
func (s *System) pruneInflight(c int) {
	now := s.clock[c]
	s.inflight[c].Retain(func(_ memsys.Addr, ready uint64) bool { return ready > now })
}

// StepAll advances every core one access, round-robin. Cores interleave at
// access granularity, approximating concurrent execution on the shared L2.
func (s *System) StepAll() {
	for c := range s.gens {
		s.Step(c)
	}
}

// StepAllN advances every core by n accesses: n StepAll calls.
func (s *System) StepAllN(n int) {
	for i := 0; i < n; i++ {
		s.StepAll()
	}
}

// ResetStats zeroes every statistic (hierarchy, predictors, proxies) in
// place while leaving microarchitectural state warm; Run calls it after
// warmup, and it allocates nothing.
func (s *System) ResetStats() {
	s.Hier.ResetStats()
	for _, p := range s.preds {
		if p != nil {
			p.ResetStats()
		}
	}
	if s.tm != nil {
		s.tm.Reset() // the proxy counters just restarted from zero too
	}
}
