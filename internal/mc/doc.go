// Package mc is a deterministic stateless model checker for the
// simulator's two concurrency-sensitive subsystems, in the style of the
// stateless-model-checking line (Abdulla et al., "Stateless Model
// Checking for TSO and PSO" / "... for POWER"): execution is serialized,
// a scheduler picks one enabled transition per step, and the checker
// exhaustively enumerates the scheduler's choice tree by replay.
//
// Two explorers:
//
//   - ExploreSchedules drives internal/sweep's worker pool through every
//     interleaving of a small grid via the Options.Sched hook (pickup,
//     cancellation check, lookup and pool take, the wait on an in-flight
//     twin, simulate, pool put, merge are the atomic transitions),
//     asserting the merged report bytes are identical to serial
//     execution on every schedule, that every signature of the grid
//     simulates exactly once, and that the system pool survives
//     every schedule — including schedules where cancellation is
//     injected at an arbitrary yield point — intact and within bound.
//
//   - ExploreStates drives a tiny PVProxy (2–4 entries, a handful of
//     accesses) through every reachable ordering of demand accesses, PV
//     fetch completions, evictions/invalidations, dirty marks and
//     flushes, pruning revisited control states by hash. After every
//     transition it checks the internal/simtest conservation laws, an
//     exact shadow model of the proxy's statistics and MSHR issue rule,
//     entry conservation (fetches == writebacks + clean evictions +
//     invalidations + resident), backend agreement, and the
//     timing.PVDelta fold; at every quiescent path end it checks that no
//     MSHR is leaked (all fetches drain).
//
// Both explorers are deterministic: a failure is reported as a
// Counterexample whose Seed — the decision trail — replays the exact
// schedule or event path, via Replay* here, `pvsim mc -replay-schedule` /
// `-replay-state` on the command line, or a debugger breakpoint on the
// failing check.
package mc
