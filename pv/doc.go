// Package pv is the public face of Predictor Virtualization: the contract
// a predictor implements to run inside the simulator, and the registry
// through which predictor families plug themselves in.
//
// The paper's headline claim is that PV is a *general* framework — one
// PVProxy/PVCache mechanism serves spatial pattern tables, stride tables
// and branch target buffers without changing the optimization engine. This
// package encodes that generality as an API:
//
//   - Spec names a registered predictor family and carries its build
//     parameters (geometry, realization Mode, PVCache size). A Spec is
//     plain data; sim.Config embeds one instead of a closed enum.
//   - Builder is what a predictor family registers: it labels, validates
//     and constructs instances in dedicated, infinite or virtualized form.
//     A family whose virtualized set packs into one L2 block also
//     implements BlockValidator, which Spec.ValidateBlock calls.
//   - Instance is the per-core contract the simulator drives: OnAccess /
//     OnEvict observations, ResetStats, and a statistics snapshot. A cold
//     start is always a fresh Builder.New.
//   - Virtualizable is the extra surface of a virtualized instance: its
//     reserved table range, live PVProxy statistics, and the Drop hook the
//     on-chip-only mode needs.
//
// Built-in families (internal/sms, internal/stride, internal/btb) register
// themselves in their package init; importing pvsim/pv/predictors links
// all of them in. Third-party predictors do the same from their own
// packages — see examples/custom_predictor — and run through sim.System
// with zero changes to the simulator: the registry is the only coupling.
//
// The pv/pvtest package holds a generic conformance suite every registered
// family must pass: a virtualized instance whose PVCache covers the whole
// table must behave exactly like the dedicated form.
package pv
