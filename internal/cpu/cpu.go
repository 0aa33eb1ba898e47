// Package cpu models core timing just precisely enough to turn miss
// coverage into execution time: the paper's detailed out-of-order
// UltraSPARC model is replaced by a 1-IPC front end whose memory stalls are
// divided by a workload memory-level-parallelism factor (the overlap an
// 8-wide out-of-order core extracts). Figures 9 and 11 only need the
// *relative* speedups this produces; Figures 4–8/10 are purely functional
// and never consult this package.
package cpu

import "fmt"

// Config parameterizes one core's timing.
type Config struct {
	// MemRatio is the fraction of instructions that are memory operations;
	// each observed access therefore accounts for 1/MemRatio instructions.
	MemRatio float64
	// MLP divides miss stall cycles, modeling out-of-order overlap of
	// outstanding misses.
	MLP float64
	// L1Latency is the pipelined L1 hit latency; hits do not stall.
	L1Latency uint64
	// FrontEndMLP divides instruction-fetch miss stalls (fetch misses
	// overlap less than data misses; branch prediction hides some).
	FrontEndMLP float64
}

// Validate checks timing parameters.
func (c Config) Validate() error {
	if c.MemRatio <= 0 || c.MemRatio > 1 {
		return fmt.Errorf("cpu: MemRatio %v outside (0,1]", c.MemRatio)
	}
	if c.MLP < 1 || c.FrontEndMLP < 1 {
		return fmt.Errorf("cpu: MLP %v / FrontEndMLP %v below 1", c.MLP, c.FrontEndMLP)
	}
	return nil
}

// Core accumulates committed instructions and elapsed cycles.
type Core struct {
	cfg    Config
	cycles float64
	instrs float64
}

// New returns a core; it panics on invalid configuration.
func New(cfg Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Core{cfg: cfg}
}

// OnAccess accounts for one memory instruction plus the non-memory
// instructions preceding it. missLatency is the access's total latency;
// anything beyond the L1 hit latency stalls the core, divided by MLP.
// extraStall adds cycles that are not overlappable (e.g. waiting for a
// late prefetch to complete).
func (c *Core) OnAccess(missLatency uint64, extraStall uint64) {
	c.instrs += 1 / c.cfg.MemRatio
	c.cycles += 1 / c.cfg.MemRatio // 1-IPC base pipeline
	if missLatency > c.cfg.L1Latency {
		c.cycles += float64(missLatency-c.cfg.L1Latency) / c.cfg.MLP
	}
	if extraStall > 0 {
		c.cycles += float64(extraStall) / c.cfg.MLP
	}
}

// OnFetch accounts an instruction-fetch stall (no instruction is committed
// for the fetch itself — instructions are counted via OnAccess).
func (c *Core) OnFetch(latency uint64) {
	if latency > c.cfg.L1Latency {
		c.cycles += float64(latency-c.cfg.L1Latency) / c.cfg.FrontEndMLP
	}
}

// Cycles returns elapsed cycles.
func (c *Core) Cycles() float64 { return c.cycles }

// Instrs returns committed instructions.
func (c *Core) Instrs() float64 { return c.instrs }

// IPC returns instructions per cycle so far (0 before any work).
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return c.instrs / c.cycles
}

// Snapshot captures (instrs, cycles) for windowed measurements.
type Snapshot struct {
	Instrs float64
	Cycles float64
}

// Snapshot returns current accumulators.
func (c *Core) Snapshot() Snapshot { return Snapshot{Instrs: c.instrs, Cycles: c.cycles} }

// Since returns the delta from an earlier snapshot.
func (c *Core) Since(s Snapshot) Snapshot {
	return Snapshot{Instrs: c.instrs - s.Instrs, Cycles: c.cycles - s.Cycles}
}
