// Package sweep is the batch engine behind `pvsim sweep` and `pvsim
// serve`: it expands a declarative parameter grid — named predictor specs ×
// workloads × PVCache sizes × seeds — into simulation jobs, schedules them
// over a bounded worker pool backed by the experiments.Runner system pool
// (at most Parallel retained systems: a job rebuilds a retained sim.System
// of its hierarchy geometry around its cache arrays), and merges the
// results in deterministic job order.
//
// The engine's headline guarantee is that parallelism is unobservable:
// running a grid at Parallel=8 produces byte-identical output — report
// text, CSV and JSON alike — to Parallel=1, because every job's result is
// written to its pre-assigned slot and rows are emitted in expansion order,
// never completion order (TestSweepParallelDeterminism pins this, and runs
// under -race in CI).
package sweep
