package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"pvsim/internal/experiments"
	"pvsim/internal/sim"
	"pvsim/internal/timing"
	"pvsim/internal/workloads"
	"pvsim/pv"
)

// Grid declares a parameter sweep: the cross product of named predictor
// specs, scenarios (workloads and/or multi-programmed mixes), PVCache
// sizes and seeds, at one scale. It is plain data — JSON-encodable for
// `pvsim sweep -grid file.json` and the serve API — and expansion order is
// fixed (seed-major, then scenario — workloads before mixes — then spec,
// then PVCache size), so a grid is also the order of its output rows.
type Grid struct {
	// Specs names registered predictor configurations (`pvsim list` shows
	// them: "1K-11a", "PV-8", "stride-PV-8", ... and "none" for the
	// baseline). Required.
	Specs []string `json:"specs"`
	// Workloads names Table 2 workloads; empty means all eight — unless
	// Mixes is set, in which case an empty Workloads means mixes only.
	Workloads []string `json:"workloads,omitempty"`
	// Mixes adds multi-programmed scenarios to the scenario axis: named
	// mixes ("oltp-web") or structural specs ("DB2/DB2/Apache/Apache",
	// "DB2+Apache@50000" — see workloads.ParseMix for the syntax). Each
	// mix is one scenario cell, exactly like a workload.
	Mixes []string `json:"mixes,omitempty"`
	// PhaseFlush flushes predictor state (engine and PVTable) at the phase
	// edges of phased mixes, modeling context-switch flushes. No effect on
	// steady scenarios.
	PhaseFlush bool `json:"phase_flush,omitempty"`
	// PVCache overrides the PVCache entry count of *virtualized* specs,
	// one job per value; dedicated/infinite specs ignore it. Empty keeps
	// each spec's own size.
	PVCache []int `json:"pvcache,omitempty"`
	// Seeds are the workload-generator seeds to sweep; empty means {42},
	// the evaluation's standard seed. Seed 0 is a real seed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Scale multiplies the per-core access counts exactly like
	// experiments.Options.Scale; 0 means 1.0.
	Scale float64 `json:"scale,omitempty"`
	// Timing enables the IPC model (20 sampling windows, like the paper's
	// timing figures); rows then carry IPC and speedup-vs-baseline.
	Timing bool `json:"timing,omitempty"`
	// Cost enables the passive cycle-approximate cost model
	// (internal/timing) on every job and matched baseline; rows then carry
	// modeled cycles, cycles-per-access and a cost-model speedup over the
	// baseline. Unlike Timing it perturbs nothing: coverage columns are
	// byte-identical with and without it.
	Cost bool `json:"cost,omitempty"`
}

// Job is one expanded grid point: the exact sim.Config it runs plus the
// coordinates it came from. Index is the job's position in expansion order
// and the row slot its result is merged into. Scenario is the row label —
// the workload name, or the mix name/spec for mix jobs (Workload is the
// zero value then).
type Job struct {
	Index    int
	Seed     uint64
	Scenario string
	Workload workloads.Workload
	Mix      string // the mix spec as given in the grid; empty for workload jobs
	SpecName string
	PVCache  int // effective PVCache entries; 0 when not virtualized
	Config   sim.Config
}

// DecodeGrid parses a grid from JSON. Unknown fields are rejected, so a
// typo in a grid file or API request errors instead of silently meaning
// "use the default". `pvsim sweep -grid` and the serve API both decode
// through it: the two accept exactly the same syntax.
func DecodeGrid(r io.Reader) (Grid, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: decoding grid: %w", err)
	}
	return g, nil
}

// normalized fills the grid's defaults without touching the receiver. The
// all-eight workload default applies only when no mixes are named: a
// mixes-only grid runs exactly its mixes.
func (g Grid) normalized() Grid {
	if len(g.Workloads) == 0 && len(g.Mixes) == 0 {
		g.Workloads = workloads.Names()
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{42}
	}
	if g.Scale <= 0 {
		g.Scale = 1.0
	}
	return g
}

// scenario is one cell of the scenario axis: a plain workload or a
// multi-programmed mix.
type scenario struct {
	name  string // row label: workload name, or the mix's name/spec
	w     workloads.Workload
	mix   workloads.Mix
	isMix bool
}

// scenarios resolves the grid's scenario axis in expansion order:
// workloads first, then mixes.
func (g Grid) scenarios() ([]scenario, error) {
	g = g.normalized()
	out := make([]scenario, 0, len(g.Workloads)+len(g.Mixes))
	for _, name := range g.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		out = append(out, scenario{name: name, w: w})
	}
	for _, spec := range g.Mixes {
		m, err := workloads.ParseMix(spec)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		out = append(out, scenario{name: m.Name, mix: m, isMix: true})
	}
	return out, nil
}

// MaxJobs bounds a grid's expansion: far above the few hundred jobs of
// any sweep the evaluation, examples or benchmark run, far below the
// ~100k seeds a megabyte request body can list, so a hostile grid is
// refused before expansion allocates a Job per cross-product point.
const MaxJobs = 1 << 16

// Validate checks the grid against the pv and workload registries so a
// typo errors with the available names before any simulation starts, and
// refuses a grid whose axes could expand to more than MaxJobs jobs.
func (g Grid) Validate() error {
	g = g.normalized()
	if len(g.Specs) == 0 {
		return fmt.Errorf("sweep: grid has no specs (try names from 'pvsim list', e.g. \"PV-8\")")
	}
	// An upper bound (PVCache multiplies only virtualized specs), in
	// float64 so no product of axis lengths can overflow.
	if n := float64(len(g.Seeds)) * float64(len(g.Workloads)+len(g.Mixes)) * float64(len(g.Specs)) * float64(max(1, len(g.PVCache))); n > MaxJobs {
		return fmt.Errorf("sweep: grid expands to up to %.0f jobs, over the %d-job limit", n, MaxJobs)
	}
	for _, name := range g.Specs {
		if _, err := pv.SpecByName(name); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, name := range g.Workloads {
		if _, err := workloads.ByName(name); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, spec := range g.Mixes {
		m, err := workloads.ParseMix(spec)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, e := range g.PVCache {
		if e <= 0 {
			return fmt.Errorf("sweep: pvcache entry count %d (want > 0)", e)
		}
	}
	return nil
}

// Hash is the grid's identity: a short digest of its normalized canonical
// JSON. The serve result cache is keyed by it, so resubmitting the same
// grid — including a reordered-but-equal one only if the order matches,
// since order is part of the output contract — reuses the finished sweep.
func (g Grid) Hash() string {
	b, err := json.Marshal(g.normalized())
	if err != nil {
		// Grid is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("sweep: marshaling grid: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// jobExpansions counts Grid.Jobs calls, process-wide. Expansion is the
// O(grid) step every derived quantity (totals, headers, shard plans)
// funnels through, so tests pin how many expansions a code path performs
// — the service must admit a submitted grid with exactly one.
var jobExpansions atomic.Int64

// JobExpansions reports the process-wide Grid.Jobs call count. It exists
// for tests that pin expansion work (compare before/after deltas); it is
// monotonic and never reset.
func JobExpansions() int64 { return jobExpansions.Load() }

// Jobs expands the grid into jobs in deterministic order. The grid must
// Validate.
func (g Grid) Jobs() ([]Job, error) {
	jobExpansions.Add(1)
	g = g.normalized()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	scens, err := g.scenarios()
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, seed := range g.Seeds {
		for _, sc := range scens {
			for _, sname := range g.Specs {
				spec, err := pv.SpecByName(sname)
				if err != nil {
					return nil, err
				}
				for _, variant := range pvcacheVariants(spec, g.PVCache) {
					// Jobs are the cell's baseline config plus a prefetcher,
					// so job and matched baseline can never drift apart in
					// scale, timing or windowing.
					cfg, err := g.baselineConfig(sc, seed)
					if err != nil {
						return nil, err
					}
					cfg.Prefetch = variant
					if err := cfg.Validate(); err != nil {
						return nil, fmt.Errorf("sweep: job (seed=%d %s %s): %w", seed, sc.name, sname, err)
					}
					j := Job{
						Index:    len(jobs),
						Seed:     seed,
						Scenario: sc.name,
						Workload: sc.w,
						SpecName: sname,
						PVCache:  variant.PVCacheEntries,
						Config:   cfg,
					}
					if sc.isMix {
						j.Mix = sc.name
					}
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs, nil
}

// pvcacheVariants applies the grid's PVCache dimension to one spec: one
// variant per entry count for virtualized specs, the spec itself otherwise.
func pvcacheVariants(spec pv.Spec, entries []int) []pv.Spec {
	if spec.Mode != pv.Virtualized || !spec.Enabled() || len(entries) == 0 {
		return []pv.Spec{spec}
	}
	out := make([]pv.Spec, len(entries))
	for i, e := range entries {
		v := spec
		v.PVCacheEntries = e
		out[i] = v
	}
	return out
}

// baselineConfig builds one (scenario, seed) cell's matched no-prefetcher
// run: the config coverage is measured against, and — with Prefetch set —
// the config every job of the cell runs. Keeping both behind this one
// function is what makes them matched.
func (g Grid) baselineConfig(sc scenario, seed uint64) (sim.Config, error) {
	g = g.normalized()
	var cfg sim.Config
	if sc.isMix {
		var err error
		cfg, err = experiments.ConfigForMix(sc.mix, g.Scale, seed)
		if err != nil {
			return sim.Config{}, fmt.Errorf("sweep: mix %q: %w", sc.name, err)
		}
		cfg.PhaseFlush = g.PhaseFlush
	} else {
		cfg = experiments.ConfigFor(sc.w, g.Scale, seed)
	}
	if g.Timing {
		cfg.Timing = true
		cfg.Windows = 20
	}
	if g.Cost {
		cfg.Cost = timing.Config{Enabled: true}
	}
	return cfg, nil
}

// baselineCell identifies one (seed, scenario) pair needing a baseline run.
type baselineCell struct {
	seed     uint64
	scenario string
}

// baselineCells returns the matched baseline configs for jobs, in first-use
// order, and the index of each job's baseline. A cell's baseline is its
// jobs' config with the prefetcher removed — derived, not rebuilt, so the
// two can never drift. Both the engine (to schedule the baseline wave) and
// the serve API (to report the true simulation count) take their totals
// from it.
func (g Grid) baselineCells(jobs []Job) ([]sim.Config, map[baselineCell]int) {
	idx := map[baselineCell]int{}
	var cfgs []sim.Config
	for _, j := range jobs {
		c := baselineCell{j.Seed, j.Scenario}
		if _, ok := idx[c]; !ok {
			base := j.Config
			base.Prefetch = pv.Spec{}
			idx[c] = len(cfgs)
			cfgs = append(cfgs, base)
		}
	}
	return cfgs, idx
}

// TotalSims reports how many simulations the grid runs end to end: its
// jobs plus one matched baseline per distinct (seed, workload) cell — the
// total the engine's Progress callback counts against.
func (g Grid) TotalSims() (int, error) {
	p, err := g.Plan()
	return p.TotalSims, err
}

// Plan is the expand-once admission summary of a grid: everything a
// service needs to track a submitted sweep — the precomputed stream
// header, the job (row) count, and the unsharded total simulation count —
// derived from a single expansion. Grid.Plan exists so admitting a grid
// costs one O(jobs) expansion instead of one per derived number.
type Plan struct {
	// Header is the framed-JSON stream's opening chunk (StreamHeader).
	Header []byte
	// Jobs is the row count the finished sweep will carry.
	Jobs int
	// TotalSims is Jobs plus one matched baseline per distinct
	// (seed, scenario) cell — TotalSims() without the extra expansion.
	TotalSims int
}

// Plan expands the grid once and derives the admission summary.
func (g Grid) Plan() (Plan, error) {
	g = g.normalized()
	jobs, err := g.Jobs()
	if err != nil {
		return Plan{}, err
	}
	header, err := streamHeaderForJobs(g, len(jobs))
	if err != nil {
		return Plan{}, err
	}
	cfgs, _ := g.baselineCells(jobs)
	return Plan{Header: header, Jobs: len(jobs), TotalSims: len(jobs) + len(cfgs)}, nil
}
