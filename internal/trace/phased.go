package trace

import "fmt"

// Source is an access stream, the one way the simulator produces
// accesses. Generator and Phased both implement it; sim.System drives its
// per-core streams through this interface so a core runs a steady workload
// or a phased one with the same wiring.
type Source interface {
	// Next returns the stream's next access.
	Next() Access
}

// Phase is one segment of a phased access stream: a workload parameter set
// and how many accesses the core spends in it before switching to the next
// phase. Phases model program phase changes and context switches — the
// time-varying behaviour the paper's steady-state workloads do not exercise
// but a shared PVCache must survive.
type Phase struct {
	// Params is the generator parameter set active during this phase.
	Params Params
	// Accesses is the phase length in accesses. In a multi-phase stream
	// every phase needs a positive length; a single-phase stream ignores it
	// (the phase simply never ends).
	Accesses int
}

// Validate checks one phase list: at least one phase, every parameter set
// valid, and positive lengths whenever the stream actually switches.
func ValidatePhases(phases []Phase) error {
	if len(phases) == 0 {
		return fmt.Errorf("trace: empty phase list")
	}
	for i, ph := range phases {
		if err := ph.Params.Validate(); err != nil {
			return fmt.Errorf("trace: phase %d: %w", i, err)
		}
		if len(phases) > 1 && ph.Accesses <= 0 {
			return fmt.Errorf("trace: phase %d (%s) has length %d; multi-phase streams need positive lengths",
				i, ph.Params.Name, ph.Accesses)
		}
	}
	return nil
}

// Phased interleaves several generators on one core, switching between them
// deterministically at access-count boundaries. Phases cycle: after the
// last phase's budget is spent the stream returns to the first phase, and a
// resumed phase continues its generator where it left off — the way a
// context-switched process resumes its own access stream rather than
// restarting it. A single-phase Phased is byte-identical to the bare
// Generator it wraps.
type Phased struct {
	phases []Phase
	gens   []*Generator
	cur    int
	left   int
	// edge, when set, runs at every phase boundary with the index of the
	// phase about to start. sim.System uses it to flush predictor state at
	// context-switch edges (Config.PhaseFlush).
	edge func(next int)
}

// NewPhased builds core's phased stream under the given seed. Every phase
// gets its own deterministic Generator seeded exactly as a steady run of
// that phase's parameters would be, so a phase's stream is the prefix of
// the homogeneous stream it was cut from.
func NewPhased(phases []Phase, seed uint64, core int) *Phased {
	if err := ValidatePhases(phases); err != nil {
		panic(err)
	}
	p := &Phased{
		phases: append([]Phase(nil), phases...),
		gens:   make([]*Generator, len(phases)),
	}
	for i, ph := range phases {
		p.gens[i] = NewGenerator(ph.Params, seed, core)
	}
	p.left = p.phases[0].Accesses
	return p
}

// SetEdgeHook installs fn to run at every phase boundary, immediately
// before the first access of the phase it is handed the index of.
func (p *Phased) SetEdgeHook(fn func(next int)) { p.edge = fn }

// Phase returns the index of the phase the next access will be drawn from
// (the switch itself is performed lazily inside Next, so the edge hook runs
// immediately before the new phase's first access).
func (p *Phased) Phase() int {
	if len(p.phases) > 1 && p.left <= 0 {
		return (p.cur + 1) % len(p.phases)
	}
	return p.cur
}

// Params returns the workload parameters the next access will be drawn
// under.
func (p *Phased) Params() Params { return p.phases[p.Phase()].Params }

// Next returns the next access, switching phases when the active phase's
// budget is spent. The switch — and the edge hook — happen before the
// first access of the new phase is drawn.
func (p *Phased) Next() Access {
	if len(p.phases) > 1 && p.left <= 0 {
		p.cur = (p.cur + 1) % len(p.phases)
		p.left = p.phases[p.cur].Accesses
		if p.edge != nil {
			p.edge(p.cur)
		}
	}
	p.left--
	return p.gens[p.cur].Next()
}
