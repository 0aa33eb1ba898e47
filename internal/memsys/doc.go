// Package memsys models the CMP memory hierarchy of the paper's Table 1:
// per-core split L1 instruction/data caches, a shared banked L2, and main
// memory, together with the traffic accounting Predictor Virtualization
// needs (requests classified by requester kind and by whether the address
// belongs to an in-memory predictor table).
//
// The model is trace-driven: callers push accesses one at a time and receive
// the level that served the access plus a latency in cycles. Functional
// experiments ignore the latency; timing experiments feed it to the core
// model in internal/cpu.
//
// # Role in the virtualization layering
//
// PV stores predictor tables in reserved physical memory (Config.PVRanges)
// and lets their blocks compete for L2 capacity like any other data. This
// package provides the two backside entry points the PVProxy uses —
// Hierarchy.PVRead and Hierarchy.PVWriteback — and attributes their traffic
// separately (PVFetch/PVWriteback request kinds, ClassPV off-chip traffic)
// so the Figure 6–8 overhead numbers fall directly out of Stats. The
// OnChipOnlyPV and PrioritizeAppOverPV knobs model the §2.2 design options
// at the L2 edge and the bank arbiters respectively.
//
// # Components
//
//   - Cache (cache.go): one set-associative write-back LRU cache with
//     per-line dirty and "prefetched, unused" bits, 9 B per line: a
//     scanned array of 32-bit low tag halves, high halves allocated only
//     for addresses that need them, 32-bit LRU stamps renumbered by rank
//     before the clock wraps, and a flag byte.
//   - Hierarchy (hierarchy.go): wires L1s, the banked L2 and main-memory
//     latency; exposes demand (Data/Fetch), prefetch, and PV entry points.
//     A store invalidates the block in every other core's L1D: the L1D
//     tags are the sharer set, so there is no separate directory.
//   - AddrTable (addrtable.go): the open-addressed address-keyed table
//     the simulator's per-access lookups use instead of Go maps.
//   - Addr/AddrRange/AccessKind/Class (addr.go): address and traffic
//     taxonomy.
//
// All per-access paths are allocation-free. Hierarchy.Retarget (through
// Hierarchy.Reset) restores a hierarchy in place for reuse across runs,
// and Hierarchy.ResetStats zeroes statistics after warmup.
package memsys
