// Package simtest is the executable invariant harness: cheap conservation
// and metamorphic checks run against full simulations of every registered
// predictor spec crossed with every named mix. It applies the spirit of
// systematic-checking work (stateless exploration of all behaviours) as
// directly runnable invariants rather than a model checker — any Result
// the simulator can produce must satisfy them, so the harness doubles as
// a library for fuzzers and integration tests.
//
// The invariants:
//
//   - Conservation: hits + misses == accesses at every level (per-core
//     L1s, the shared L2 per request kind, and the PVProxy), and every
//     derived counter is consistent with its inputs.
//   - Cost accounting (when the run folded costs): per-core cycles are
//     exactly the sum of their components, at least Accesses x
//     L1HitCycles, and — for flush-free runs — the fold's PV counters
//     equal the PVProxy's own statistics, event for event and cycle for
//     cycle. The fold and the proxy count independently; their exact
//     agreement is the conservation law of the cost model. A PhaseFlush
//     run restarts the proxy counters at every phase edge (the fold keeps
//     the whole history), so there the fold must dominate field-wise
//     instead.
//
// The metamorphic checks (in the package's tests):
//
//   - a homogeneous mix must be bit-identical to the equivalent single
//     workload;
//   - any PVCache at least as large as the table must be bit-identical to
//     any other such size (zero tolerance), and an always-hitting PVCache
//     folds to exactly the dedicated table's cycles.
package simtest

import (
	"fmt"

	"pvsim/internal/memsys"
	"pvsim/internal/sim"
)

// Check runs every applicable invariant against one finished run.
func Check(res *sim.Result) error {
	if err := CheckConservation(res); err != nil {
		return err
	}
	return CheckCost(res)
}

// CheckConservation verifies the counter conservation laws every Result
// must satisfy, whatever its configuration.
func CheckConservation(res *sim.Result) error {
	for c, cs := range res.Mem.Core {
		if cs.L1DReadMisses > cs.L1DReads {
			return fmt.Errorf("core %d: %d L1D read misses > %d reads", c, cs.L1DReadMisses, cs.L1DReads)
		}
		if cs.L1DWriteMisses > cs.L1DWrites {
			return fmt.Errorf("core %d: %d L1D write misses > %d writes", c, cs.L1DWriteMisses, cs.L1DWrites)
		}
		if cs.L1DPrefetchHits > cs.L1DReads {
			return fmt.Errorf("core %d: %d prefetch hits > %d reads", c, cs.L1DPrefetchHits, cs.L1DReads)
		}
		if cs.L1IMisses > cs.L1IFetches {
			return fmt.Errorf("core %d: %d L1I misses > %d fetches", c, cs.L1IMisses, cs.L1IFetches)
		}
	}
	for k := 0; k < int(memsys.NumKinds); k++ {
		req, hit, miss := res.Mem.L2Requests[k], res.Mem.L2Hits[k], res.Mem.L2Misses[k]
		if hit+miss != req {
			return fmt.Errorf("L2 kind %d: %d hits + %d misses != %d requests", k, hit, miss, req)
		}
	}
	for c, p := range res.Proxies {
		if p.Hits+p.Misses != p.Lookups {
			return fmt.Errorf("proxy %d: %d hits + %d misses != %d lookups", c, p.Hits, p.Misses, p.Lookups)
		}
		if p.Fetches != p.Misses {
			return fmt.Errorf("proxy %d: %d fetches != %d misses (every miss fetches exactly once)", c, p.Fetches, p.Misses)
		}
		if p.FilledByL2+p.FilledByMem != p.Fetches {
			return fmt.Errorf("proxy %d: %d L2-fills + %d mem-fills != %d fetches", c, p.FilledByL2, p.FilledByMem, p.Fetches)
		}
		if p.InFlightMerges > p.Hits {
			return fmt.Errorf("proxy %d: %d in-flight merges > %d hits", c, p.InFlightMerges, p.Hits)
		}
		if p.MSHRStalls > p.Misses {
			return fmt.Errorf("proxy %d: %d MSHR stalls > %d misses", c, p.MSHRStalls, p.Misses)
		}
	}
	return nil
}

// CheckCost verifies the cost model's conservation laws; it is a no-op
// for runs that did not fold costs.
func CheckCost(res *sim.Result) error {
	if !res.Cost.Enabled() {
		return nil
	}
	p := res.Cost.Params
	for c, cc := range res.Cost.Core {
		sum := cc.BaseCycles + cc.DemandStallCycles + cc.FetchStallCycles +
			cc.PVHitCycles + cc.PVMissCycles + cc.PVStallCycles + cc.PVBusCycles
		if cc.Cycles() != sum {
			return fmt.Errorf("cost core %d: Cycles() %d != component sum %d", c, cc.Cycles(), sum)
		}
		if cc.BaseCycles != cc.Accesses*p.L1HitCycles {
			return fmt.Errorf("cost core %d: base %d != %d accesses x %d", c, cc.BaseCycles, cc.Accesses, p.L1HitCycles)
		}
		if cc.Cycles() < cc.Accesses*p.L1HitCycles {
			return fmt.Errorf("cost core %d: %d cycles < minimum %d", c, cc.Cycles(), cc.Accesses*p.L1HitCycles)
		}
		if cc.PVMisses > cc.PVLookups || cc.PVStalls > cc.PVMisses {
			return fmt.Errorf("cost core %d: PV counters inconsistent: %+v", c, cc)
		}
	}
	// Cores step in lockstep (StepAll round-robins), so every core folds
	// the same access count whatever the run shape (plain or windowed).
	for c := 1; c < len(res.Cost.Core); c++ {
		if res.Cost.Core[c].Accesses != res.Cost.Core[0].Accesses {
			return fmt.Errorf("cost core %d folded %d accesses, core 0 folded %d (cores step in lockstep)",
				c, res.Cost.Core[c].Accesses, res.Cost.Core[0].Accesses)
		}
	}
	// The fold and the PVProxy count the same events independently; for
	// flush-free runs they must agree exactly. A PhaseFlush run restarts
	// the proxy counters at every phase edge while the fold keeps the
	// whole history (the flush hook folds the old instance's movement
	// before the rebuild replaces it), so there the fold dominates
	// field-wise.
	for c, proxy := range res.Proxies {
		cc := res.Cost.Core[c]
		if res.Config.PhaseFlush {
			if cc.PVLookups < proxy.Lookups || cc.PVMisses < proxy.Misses ||
				cc.PVStalls < proxy.MSHRStalls || cc.PVInvalidations < proxy.Invalidations {
				return fmt.Errorf("cost core %d: fold (%d lookups/%d misses/%d stalls) lost events vs post-flush proxy (%d/%d/%d)",
					c, cc.PVLookups, cc.PVMisses, cc.PVStalls, proxy.Lookups, proxy.Misses, proxy.MSHRStalls)
			}
			continue
		}
		if cc.PVLookups != proxy.Lookups || cc.PVMisses != proxy.Misses ||
			cc.PVStalls != proxy.MSHRStalls || cc.PVInvalidations != proxy.Invalidations {
			return fmt.Errorf("cost core %d: fold (%d lookups/%d misses/%d stalls/%d invals) != proxy (%d/%d/%d/%d)",
				c, cc.PVLookups, cc.PVMisses, cc.PVStalls, cc.PVInvalidations,
				proxy.Lookups, proxy.Misses, proxy.MSHRStalls, proxy.Invalidations)
		}
		if want := proxy.Hits * p.PVHitCycles; cc.PVHitCycles != want {
			return fmt.Errorf("cost core %d: PV hit cycles %d != %d", c, cc.PVHitCycles, want)
		}
		if want := proxy.FilledByL2*p.PVMissL2Cycles + proxy.FilledByMem*p.PVMissMemCycles; cc.PVMissCycles != want {
			return fmt.Errorf("cost core %d: PV miss cycles %d != %d", c, cc.PVMissCycles, want)
		}
		if want := proxy.MSHRStalls * p.MSHRStallCycles; cc.PVStallCycles != want {
			return fmt.Errorf("cost core %d: PV stall cycles %d != %d", c, cc.PVStallCycles, want)
		}
		if want := (proxy.Fetches + proxy.Writebacks) * p.PVL2BusCycles; cc.PVBusCycles != want {
			return fmt.Errorf("cost core %d: PV bus cycles %d != %d", c, cc.PVBusCycles, want)
		}
	}
	return nil
}
