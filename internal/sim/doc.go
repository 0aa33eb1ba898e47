// Package sim wires cores, caches and predictors into the quad-core
// system of Table 1 and runs functional (miss/traffic counting) or timing
// (sampled IPC) simulations over the synthetic workloads.
//
// # Layering
//
// A System owns one instance of every layer and is the only place they are
// wired together:
//
//	trace.Generator ──▶ System.Step ──▶ memsys.Hierarchy (L1/L2/memory)
//	                        │                   ▲
//	                        ▼                   │ PVRead / PVWriteback
//	                  pv.Instance (per core)    │
//	                        │                   │
//	                        ▼                   │
//	        family engine ──▶ core.Proxy ──▶ core.Table  (virtualized)
//
// Config selects the predictor through a pv.Spec — a registry name plus
// geometry/mode — rather than a closed enum: the System builds whatever
// family the spec names ("sms", "stride", "btb", or a third-party
// registration) via the pv registry, places its PVTables in reserved
// physical ranges (pv.TableStart), and classifies the resulting traffic.
// Adding a predictor family requires no change in this package.
//
// # Running
//
// Run builds a System and executes warmup, a statistics reset, and the
// measured phase, split into Windows measurement windows when Timing is on
// (one IPC sample per window, the matched-pair input of §4.1's
// methodology). The per-access path allocates nothing, and
// System.Rebuild wires another configuration of the same hierarchy
// geometry around a used System's cache arrays with bit-identical results
// — the path the system pool (experiments.Runner) uses to avoid
// allocating multi-megabyte cache arrays per run.
package sim
