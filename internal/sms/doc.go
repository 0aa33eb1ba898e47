// Package sms implements the Spatial Memory Streaming data prefetcher
// (Somogyi et al., ISCA 2006 — reference [27] of the paper) exactly as
// §3.1 describes it, plus the virtualized variant of §3.2 built on the
// Predictor Virtualization framework in internal/core.
//
// SMS splits memory into fixed-size spatial regions, records which blocks
// inside a region are touched between a triggering access and the first
// eviction/invalidation of any touched block (a "generation"), and stores
// the resulting bit-vector pattern in a pattern history table (PHT) indexed
// by (PC, trigger block offset). At the next trigger with the same index it
// streams the predicted blocks into the L1.
//
// # Structure
//
//   - Geometry / Pattern (region.go): the spatial-region layout and the
//     bit-vector patterns generations produce.
//   - Engine (engine.go): the per-core optimization engine — the active
//     generation table (filter + accumulation, indexed by memsys.AddrTable,
//     the simulator's shared open-addressed table) that observes the L1D
//     access/eviction stream.
//   - PatternStore (pht.go): the PHT port the engine trains against. The
//     paper's central claim is that this interface survives virtualization
//     unchanged; InfinitePHT and DedicatedPHT are the conventional
//     implementations.
//   - VirtualizedPHT (vpht.go): the PV implementation — set lookups go to a
//     core.Proxy (PVCache) over a core.Table living in a reserved physical
//     range, with SetCodec packing one 11-way PHT set per 64-byte block.
//
// # Virtualization layering
//
// The engine never knows which PatternStore it drives:
//
//	Engine ──PatternStore──▶ VirtualizedPHT ──▶ core.Proxy (PVCache, on chip)
//	                                             │ miss/writeback
//	                                             ▼
//	                          core.Table (packed sets) + memsys traffic (L2 → DRAM)
//
// Virtualization shows up to the engine only as time: Lookup returns a
// readyAt cycle in the future when the set had to be fetched from the
// memory hierarchy, and the §4.6 pattern buffer (Config.PatternBufEntries)
// bounds how many such delayed predictions may be in flight.
//
// Every structure here is allocation-free on the per-access path.
package sms
