// Package experiments reproduces every table and figure of the paper's
// evaluation (§4). Each experiment builds its simulation runs through a
// caching, parallel Runner so shared configurations (e.g. the SMS 1K-11a
// reference that Figures 6–8 all compare against) are simulated once.
//
// # Registry
//
// Experiments self-register by ID (table1..3, fig4..11, space, ablations,
// stride); All returns them in paper order and ByID looks one up — this is
// what cmd/pvsim dispatches on. Each Run(r) returns a report.Doc whose
// text/markdown/CSV rendering is entirely deterministic for a fixed
// (Scale, Seed), which EXPERIMENTS.md's regeneration commands and the
// determinism tests in this package rely on.
//
// # Runner
//
// Runner.Run keys each sim.Config by its signature into a result cache,
// bounds concurrent simulations with a semaphore, and simulates each
// signature at most once at a time: a Run whose configuration another
// caller is simulating waits for that result, without taking a slot. The
// result cache keeps the 4096 most recently used results. Every runner
// retains up to Parallel built sim.Systems, of any geometries, in release
// order. A run takes the least recently released system of its hierarchy
// geometry and rebuilds it around its cache arrays (sim.System.Rebuild),
// so a run allocates cache arrays only for its first wave; releasing a
// system past Parallel drops the oldest.
package experiments
