package timing

import (
	"fmt"

	"pvsim/internal/core"
	"pvsim/internal/memsys"
)

// Params are the cost-model constants, all in cycles (integer arithmetic
// keeps the fold byte-identical across platforms and parallelism).
type Params struct {
	// L1HitCycles is the cost every access pays; L2HitCycles and MemCycles
	// are the full latencies of accesses served by the L2 and by memory.
	L1HitCycles uint64
	L2HitCycles uint64
	MemCycles   uint64

	// MLPDiv divides demand stall cycles (out-of-order overlap of
	// outstanding misses); FetchDiv divides instruction-fetch stalls.
	MLPDiv   uint64
	FetchDiv uint64

	// PVHitCycles is the extra cost of a PVCache hit (0: a hit is exactly
	// a dedicated table access). PVMissL2Cycles / PVMissMemCycles are the
	// set-fetch round trips for misses filled by the L2 / by memory, and
	// MSHRStallCycles is the extra occupancy stall when a miss found every
	// MSHR busy.
	PVHitCycles     uint64
	PVMissL2Cycles  uint64
	PVMissMemCycles uint64
	MSHRStallCycles uint64

	// PVL2BusCycles is the bandwidth term: every PV request that reaches
	// the L2 (set fetches and dirty writebacks) occupies a bank port for
	// this long.
	PVL2BusCycles uint64
}

// DefaultParams derives the cost constants from a hierarchy configuration:
// the L1/L2/memory latencies are the hierarchy's own, and the MSHR-stall
// and bus terms use the L2 tag and bank service latencies.
//
// The default per-miss PV penalties are the fetch round trips divided by
// the same MLP overlap factor demand misses get: a PVCache set fetch is
// asynchronous metadata traffic on the backside of the L1 — it delays the
// prediction it feeds (timeliness the IPC model captures directly), not
// the pipeline — so charging it a full serialized round trip would
// contradict the paper's (and fig9's) near-dedicated performance. MSHR
// occupancy stalls stay unoverlapped: the optimization engine genuinely
// waits when every MSHR is busy.
func DefaultParams(h memsys.Config) Params {
	const mlp = 4
	l2 := h.L2.TagLatency + h.L2.DataLatency
	bus := h.BankServiceCycles
	if bus == 0 {
		bus = 2
	}
	return Params{
		L1HitCycles:     h.L1Latency,
		L2HitCycles:     h.L1Latency + l2,
		MemCycles:       h.L1Latency + h.L2.TagLatency + h.MemLatency,
		MLPDiv:          mlp,
		FetchDiv:        2,
		PVHitCycles:     0,
		PVMissL2Cycles:  l2 / mlp,
		PVMissMemCycles: (h.L2.TagLatency + h.MemLatency) / mlp,
		MSHRStallCycles: h.L2.TagLatency,
		PVL2BusCycles:   bus,
	}
}

// Enabled reports whether the params describe a usable model (the zero
// Params means "cost model off").
func (p Params) Enabled() bool { return p != Params{} }

// Validate checks the constants; the zero value (disabled) is valid.
func (p Params) Validate() error {
	if !p.Enabled() {
		return nil
	}
	if p.L1HitCycles == 0 || p.L2HitCycles < p.L1HitCycles || p.MemCycles < p.L2HitCycles {
		return fmt.Errorf("timing: latencies L1=%d L2=%d mem=%d must be ordered and non-zero",
			p.L1HitCycles, p.L2HitCycles, p.MemCycles)
	}
	if p.MLPDiv == 0 || p.FetchDiv == 0 {
		return fmt.Errorf("timing: MLPDiv=%d FetchDiv=%d must be >= 1", p.MLPDiv, p.FetchDiv)
	}
	return nil
}

// Config is the sim-facing switch: the zero value disables the cost model
// entirely (bit-identical simulation, no Cost in the Result). Enabling it
// with zero Params uses DefaultParams of the run's hierarchy.
type Config struct {
	Enabled bool
	Params  Params // zero = DefaultParams(hierarchy)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	return c.Params.Validate()
}

// PVEvents are the PVProxy counter movements observed during one step: the
// predictor-side half of the fold's input. All fields are event counts,
// not cycles.
type PVEvents struct {
	Hits        uint64
	MissesL2    uint64 // misses whose set fetch the L2 served
	MissesMem   uint64 // misses whose set fetch went off chip
	MSHRStalls  uint64
	L2Requests  uint64 // PV requests reaching the L2: fetches + writebacks
	Invalidated uint64 // coherence invalidations (tallied in Counters.PVInvalidations, not costed)
}

// PVDelta folds the difference between two PVProxy statistics snapshots
// into events. Counters are cumulative within a predictor lifetime. With
// a zero prev it folds a snapshot whole, as sim.System does with each
// core's counters at a PhaseFlush edge (before a fresh instance replaces
// them) and at the end of a run. monoSub is the safety net for restarts
// the caller did not orchestrate (e.g. a third-party instance zeroing its own proxy
// counters): a shrunken counter is treated as a restart and contributes
// its new absolute value rather than wrapping.
func PVDelta(prev, cur core.ProxyStats) PVEvents {
	return PVEvents{
		Hits:        monoSub(cur.Hits, prev.Hits),
		MissesL2:    monoSub(cur.FilledByL2, prev.FilledByL2),
		MissesMem:   monoSub(cur.FilledByMem, prev.FilledByMem),
		MSHRStalls:  monoSub(cur.MSHRStalls, prev.MSHRStalls),
		L2Requests:  monoSub(cur.Fetches+cur.Writebacks, prev.Fetches+prev.Writebacks),
		Invalidated: monoSub(cur.Invalidations, prev.Invalidations),
	}
}

// monoSub is cur-prev for monotone counters, and cur after a counter
// restart (cur < prev).
func monoSub(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// Counters are one core's cost accumulators. Cycles() is always the exact
// sum of the component fields, and every component is monotone under the
// fold.
type Counters struct {
	// Accesses and Fetches count the folded demand accesses and
	// instruction fetches; PVLookups/PVMisses/PVStalls/PVInvalidations
	// count the folded proxy events (the per-predictor timing counters of
	// the Result). Invalidations carry no cycle cost.
	Accesses        uint64
	Fetches         uint64
	PVLookups       uint64
	PVMisses        uint64
	PVStalls        uint64
	PVInvalidations uint64

	// Cycle components.
	BaseCycles        uint64 // Accesses x L1HitCycles
	DemandStallCycles uint64 // beyond-L1 demand latency / MLPDiv
	FetchStallCycles  uint64 // beyond-L1 fetch latency / FetchDiv
	PVHitCycles       uint64
	PVMissCycles      uint64
	PVStallCycles     uint64
	PVBusCycles       uint64
}

// Cycles returns the core's accumulated cycle count: the exact sum of the
// component fields.
func (c Counters) Cycles() uint64 {
	return c.BaseCycles + c.DemandStallCycles + c.FetchStallCycles +
		c.PVHitCycles + c.PVMissCycles + c.PVStallCycles + c.PVBusCycles
}

// PVOverheadCycles returns the virtualization-attributable portion.
func (c Counters) PVOverheadCycles() uint64 {
	return c.PVHitCycles + c.PVMissCycles + c.PVStallCycles + c.PVBusCycles
}

// Model folds one system's access/outcome stream into per-core counters.
// It is sized once at construction and allocation-free afterwards.
type Model struct {
	params Params
	cores  []Counters
}

// NewModel builds a model for n cores; it panics on invalid params (model
// configs come from code, not user input).
func NewModel(p Params, n int) *Model {
	if !p.Enabled() {
		panic("timing: NewModel with zero Params")
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Model{params: p, cores: make([]Counters, n)}
}

// Params returns the model's constants.
func (m *Model) Params() Params { return m.params }

// levelCost maps an outcome's serving level to its modeled latency.
func (m *Model) levelCost(l memsys.Level) uint64 {
	switch l {
	case memsys.LevelL2:
		return m.params.L2HitCycles
	case memsys.LevelMem:
		return m.params.MemCycles
	}
	return m.params.L1HitCycles
}

// OnAccess folds one demand access and its instruction fetch: each is
// costed by the level that served it, with beyond-L1 latency treated as an
// overlappable stall.
func (m *Model) OnAccess(core int, fetch, data memsys.Level) {
	p := &m.params
	c := &m.cores[core]
	c.Accesses++
	c.Fetches++
	c.BaseCycles += p.L1HitCycles
	if cost := m.levelCost(data); cost > p.L1HitCycles {
		c.DemandStallCycles += (cost - p.L1HitCycles) / p.MLPDiv
	}
	if cost := m.levelCost(fetch); cost > p.L1HitCycles {
		c.FetchStallCycles += (cost - p.L1HitCycles) / p.FetchDiv
	}
}

// OnPV folds a core's PVProxy events since its previous fold. It only
// multiplies by constants and adds, so one fold of a span's summed events
// equals folding the span's events piecewise.
func (m *Model) OnPV(core int, ev PVEvents) {
	p := &m.params
	c := &m.cores[core]
	c.PVLookups += ev.Hits + ev.MissesL2 + ev.MissesMem
	c.PVMisses += ev.MissesL2 + ev.MissesMem
	c.PVStalls += ev.MSHRStalls
	c.PVInvalidations += ev.Invalidated
	c.PVHitCycles += ev.Hits * p.PVHitCycles
	c.PVMissCycles += ev.MissesL2*p.PVMissL2Cycles + ev.MissesMem*p.PVMissMemCycles
	c.PVStallCycles += ev.MSHRStalls * p.MSHRStallCycles
	c.PVBusCycles += ev.L2Requests * p.PVL2BusCycles
}

// Core returns core c's counters.
func (m *Model) Core(c int) Counters { return m.cores[c] }

// Cores returns the core count.
func (m *Model) Cores() int { return len(m.cores) }

// Reset zeroes every accumulator in place (the stats reset after warmup),
// allocating nothing.
func (m *Model) Reset() {
	for i := range m.cores {
		m.cores[i] = Counters{}
	}
}

// Report snapshots the model into a Result-embeddable value.
func (m *Model) Report() Report {
	return Report{Params: m.params, Core: append([]Counters(nil), m.cores...)}
}

// Report is a deep-copied snapshot of one run's cost accounting, embedded
// in sim.Result next to the generic predictor stats. The zero Report means
// the cost model was disabled.
type Report struct {
	Params Params
	Core   []Counters
}

// Enabled reports whether the run accounted costs.
func (r Report) Enabled() bool { return len(r.Core) > 0 }

// Totals sums the per-core counters.
func (r Report) Totals() Counters {
	var t Counters
	for _, c := range r.Core {
		t.Accesses += c.Accesses
		t.Fetches += c.Fetches
		t.PVLookups += c.PVLookups
		t.PVMisses += c.PVMisses
		t.PVStalls += c.PVStalls
		t.PVInvalidations += c.PVInvalidations
		t.BaseCycles += c.BaseCycles
		t.DemandStallCycles += c.DemandStallCycles
		t.FetchStallCycles += c.FetchStallCycles
		t.PVHitCycles += c.PVHitCycles
		t.PVMissCycles += c.PVMissCycles
		t.PVStallCycles += c.PVStallCycles
		t.PVBusCycles += c.PVBusCycles
	}
	return t
}

// ElapsedCycles is the run's modeled wall time: the maximum per-core cycle
// count (cores run concurrently).
func (r Report) ElapsedCycles() uint64 {
	var max uint64
	for _, c := range r.Core {
		if cy := c.Cycles(); cy > max {
			max = cy
		}
	}
	return max
}

// IPCProxy is the aggregate accesses-per-cycle proxy metric: total folded
// accesses divided by elapsed cycles. With a fixed instructions-per-access
// ratio it is proportional to IPC, hence the name; 0 when no cycles were
// accounted.
func (r Report) IPCProxy() float64 {
	e := r.ElapsedCycles()
	if e == 0 {
		return 0
	}
	return float64(r.Totals().Accesses) / float64(e)
}

// CPA is total cycles per access (aggregate, 0 when no accesses folded).
func (r Report) CPA() float64 {
	t := r.Totals()
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.TotalCycles()) / float64(t.Accesses)
}

// TotalCycles is the sum of the counters' components (exposed on Counters
// so Totals().TotalCycles() reads naturally).
func (c Counters) TotalCycles() uint64 { return c.Cycles() }

// SlowdownOver returns r's elapsed cycles relative to a reference run's
// (>1 = slower than the reference), 0 when the reference accounted no
// cycles.
func (r Report) SlowdownOver(ref Report) float64 {
	rc := ref.ElapsedCycles()
	if rc == 0 {
		return 0
	}
	return float64(r.ElapsedCycles()) / float64(rc)
}
