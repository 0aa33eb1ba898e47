package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"pvsim/internal/memsys"
	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/workloads"
)

// Options tune experiment execution.
type Options struct {
	// Scale multiplies the per-core access counts (1.0 = DefaultScale
	// measured accesses). Benches use small scales; final reports 1.0+.
	Scale float64
	// Seed feeds the workload generators. Every value — including 0 — is a
	// real seed, used as given; use DefaultOptions for the evaluation's
	// standard seed 42. (Earlier versions silently rewrote 0 to 42, which
	// made seed 0 unrunnable; TestSeedZeroIsARealSeed pins the fix.)
	Seed uint64
	// Parallel caps concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// KeepSystems retains built sim.Systems in a pool keyed by hierarchy
	// geometry (memsys.Geometry: cores, the three cache shapes, L2 banks),
	// up to Parallel systems per geometry. A run takes a retained system of
	// its geometry: one that last ran the same configuration is Reset in
	// place (the allocation-free re-run path benchmarks use), any other is
	// rebuilt around its hierarchy (sim.System.Rebuild), which skips the
	// cache arrays, the bulk of a build. Off by default: retained systems
	// hold their cache arrays (megabytes each), which a one-shot pvsim
	// invocation has no reason to keep.
	KeepSystems bool
	// MaxSystems bounds how many built systems a KeepSystems runner retains
	// in total, across geometries (each holds its cache arrays —
	// megabytes). When the bound is exceeded the least-recently-used
	// system is dropped. 0 means unbounded, which is fine for the fixed
	// experiment set but not for an open-ended sweep server.
	MaxSystems int
	// MaxResults bounds the result cache the same way (results are small —
	// kilobytes of statistics — but an open-ended server accumulates one
	// per distinct configuration forever). 0 means unbounded.
	MaxResults int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
}

// DefaultOptions runs at full scale with quiet logging.
func DefaultOptions() Options {
	return Options{Scale: 1.0, Seed: 42}
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Log == nil {
		o.Log = func(string, ...interface{}) {}
	}
	return o
}

// Runner executes simulations with caching and bounded parallelism.
type Runner struct {
	opts Options

	mu    sync.Mutex
	cache map[string]*cachedResult
	// systems is the KeepSystems pool: per geometry, the retained systems
	// in release order, so each list's first entry is its least recently
	// used.
	systems map[memsys.Geometry][]*retainedSystem
	useTick uint64 // recency clock for LRU eviction
	sem     chan struct{}
}

// retainedSystem is one pooled system, the signature of the config it
// last ran, and the recency stamp MaxSystems eviction orders by.
type retainedSystem struct {
	sys     *sim.System
	key     string
	lastUse uint64
}

// cachedResult is one cached result plus the recency stamp MaxResults
// eviction orders by.
type cachedResult struct {
	res     sim.Result
	lastUse uint64
}

// evictOldestResults drops least-recently-used results until the cache
// fits MaxResults (0 means unbounded); the caller holds r.mu.
func (r *Runner) evictOldestResults() {
	max := r.opts.MaxResults
	if max <= 0 {
		return
	}
	for len(r.cache) > max {
		oldestKey := ""
		oldest := uint64(0)
		for k, e := range r.cache {
			if oldestKey == "" || e.lastUse < oldest {
				oldestKey, oldest = k, e.lastUse
			}
		}
		delete(r.cache, oldestKey)
	}
}

// NewRunner builds a runner.
func NewRunner(opts Options) *Runner {
	o := opts.normalized()
	return &Runner{
		opts:    o,
		cache:   make(map[string]*cachedResult),
		systems: make(map[memsys.Geometry][]*retainedSystem),
		sem:     make(chan struct{}, o.Parallel),
	}
}

// Reset forgets every cached result, so subsequent Run calls re-simulate.
// Systems retained under Options.KeepSystems survive: on their next use
// they are reset in place for the configuration they last ran, or rebuilt
// around their hierarchy for another of the same geometry.
func (r *Runner) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.cache)
}

// Options returns the normalized options.
func (r *Runner) Options() Options { return r.opts }

// ConfigFor builds the standard functional run of a workload at the given
// scale and seed: the measured access count is scale x sim.DefaultScale
// (floored at 1000), and warmup lasts as long as measurement, mirroring the
// paper's 1B+1B cycle split — predictor tables must be warm before coverage
// is representative. Runner.baseConfig and the sweep engine both build
// their configs through it, so a sweep job and an experiment run of the
// same (workload, scale, seed) are the same simulation.
func ConfigFor(w workloads.Workload, scale float64, seed uint64) sim.Config {
	cfg := sim.Default(w)
	applyScale(&cfg, scale, seed)
	return cfg
}

// ConfigForMix builds the standard functional run of a multi-programmed
// mix, scaled exactly like ConfigFor — a mix job and a workload job of the
// same (scale, seed) run the same warmup/measure split. The mix is sized
// for the configured core count (a one-core mix is cloned), and the
// config's Workload carries the mix name for labeling only.
func ConfigForMix(m workloads.Mix, scale float64, seed uint64) (sim.Config, error) {
	cfg := sim.Default(workloads.Workload{Name: m.Name})
	cores, err := m.ForCores(cfg.Hier.Cores)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Cores = cores
	applyScale(&cfg, scale, seed)
	return cfg, nil
}

// CheckScale rejects a scale no run can use: NaN, an infinity, a
// negative multiplier, or one so large that the measured access count
// (scale x sim.DefaultScale) does not fit in an int. 0 is valid and means
// 1.0.
func CheckScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		return fmt.Errorf("scale %g: want a finite multiplier >= 0 (0 means 1.0)", scale)
	}
	if float64(sim.DefaultScale)*scale >= math.MaxInt {
		return fmt.Errorf("scale %g: %g measured accesses per core do not fit in an int", scale, float64(sim.DefaultScale)*scale)
	}
	return nil
}

// applyScale sets the seed and the scaled warmup/measure split shared by
// ConfigFor and ConfigForMix.
func applyScale(cfg *sim.Config, scale float64, seed uint64) {
	cfg.Seed = seed
	cfg.Measure = int(float64(sim.DefaultScale) * scale)
	if cfg.Measure < 1000 {
		cfg.Measure = 1000
	}
	cfg.Warmup = cfg.Measure
}

// baseConfig builds the standard functional run of a workload at the
// runner's scale.
func (r *Runner) baseConfig(w workloads.Workload) sim.Config {
	return ConfigFor(w, r.opts.Scale, r.opts.Seed)
}

// timingConfig builds the standard timing run (SMARTS-like windows).
func (r *Runner) timingConfig(w workloads.Workload) sim.Config {
	cfg := r.baseConfig(w)
	cfg.Timing = true
	cfg.Windows = 20
	return cfg
}

func cacheKey(cfg sim.Config) string { return cfg.Signature() }

// Run simulates cfg, returning a cached result when an identical
// configuration already ran.
func (r *Runner) Run(cfg sim.Config) sim.Result {
	key := cacheKey(cfg)
	if res, ok := r.cachedRun(key); ok {
		return res
	}

	r.sem <- struct{}{}
	defer func() { <-r.sem }()

	// Double-check after acquiring a slot.
	if res, ok := r.cachedRun(key); ok {
		return res
	}

	r.opts.Log("run %s", key)
	res := r.simulate(key, cfg)
	r.storeResult(key, res)
	return res
}

// CachedResult returns cfg's cached result, refreshing its recency on a
// hit. Together with AcquireSystem/ReleaseSystem/StoreResult it decomposes
// Run into its pool/cache transitions, so the sweep engine's sequenced
// model-checking mode (internal/mc) drives exactly the code Run runs.
func (r *Runner) CachedResult(cfg sim.Config) (sim.Result, bool) {
	return r.cachedRun(cacheKey(cfg))
}

// StoreResult records cfg's finished result in the bounded result cache
// (the step Run performs after simulating).
func (r *Runner) StoreResult(cfg sim.Config, res sim.Result) {
	r.storeResult(cacheKey(cfg), res)
}

func (r *Runner) storeResult(key string, res sim.Result) {
	r.mu.Lock()
	r.useTick++
	r.cache[key] = &cachedResult{res: res, lastUse: r.useTick}
	r.evictOldestResults()
	r.mu.Unlock()
}

// AcquireSystem claims a system for cfg — the pool-take transition of
// simulate. A retained system of cfg's geometry is claimed, preferring one
// that last ran cfg: that one is Reset in place, any other is rebuilt
// around its hierarchy. A pool miss (or a runner without KeepSystems)
// builds fresh. Pair every call with ReleaseSystem after the system's Run.
func (r *Runner) AcquireSystem(cfg sim.Config) *sim.System {
	return r.acquireSystem(cacheKey(cfg), cfg)
}

func (r *Runner) acquireSystem(key string, cfg sim.Config) *sim.System {
	var e *retainedSystem
	if r.opts.KeepSystems {
		r.mu.Lock()
		e = r.takeSystem(key, cfg.Hier.Geometry())
		r.mu.Unlock()
	}
	switch {
	case e == nil:
		return sim.NewSystem(cfg)
	case e.key == key:
		e.sys.Reset()
		return e.sys
	}
	return e.sys.Rebuild(cfg)
}

// takeSystem removes and returns a retained system of geometry g — the
// one that last ran key if there is one, else the least recently used —
// or nil. The caller holds r.mu.
func (r *Runner) takeSystem(key string, g memsys.Geometry) *retainedSystem {
	list := r.systems[g]
	if len(list) == 0 {
		return nil
	}
	pick := 0
	for i, e := range list {
		if e.key == key {
			pick = i
			break
		}
	}
	return r.dropSystem(g, pick)
}

// dropSystem removes and returns the i-th retained system of geometry g.
// The caller holds r.mu.
func (r *Runner) dropSystem(g memsys.Geometry, i int) *retainedSystem {
	list := r.systems[g]
	e := list[i]
	if list = append(list[:i], list[i+1:]...); len(list) == 0 {
		delete(r.systems, g)
	} else {
		r.systems[g] = list
	}
	return e
}

// retained counts the pooled systems across geometries. The caller holds
// r.mu.
func (r *Runner) retained() int {
	n := 0
	for _, list := range r.systems {
		n += len(list)
	}
	return n
}

// ReleaseSystem returns a claimed system to the pool — the pool-put
// transition of simulate. A geometry keeps at most Parallel systems and
// the pool at most MaxSystems; past either bound the least recently used
// system is dropped. Without KeepSystems the system is simply dropped.
func (r *Runner) ReleaseSystem(cfg sim.Config, sys *sim.System) {
	r.releaseSystem(cacheKey(cfg), cfg.Hier.Geometry(), sys)
}

func (r *Runner) releaseSystem(key string, g memsys.Geometry, sys *sim.System) {
	if !r.opts.KeepSystems {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.useTick++
	r.systems[g] = append(r.systems[g], &retainedSystem{sys: sys, key: key, lastUse: r.useTick})
	if len(r.systems[g]) > r.opts.Parallel {
		r.dropSystem(g, 0)
	}
	for max := r.opts.MaxSystems; max > 0 && r.retained() > max; {
		var oldest memsys.Geometry
		oldestUse := uint64(0)
		for k, list := range r.systems {
			if oldestUse == 0 || list[0].lastUse < oldestUse {
				oldest, oldestUse = k, list[0].lastUse
			}
		}
		r.dropSystem(oldest, 0)
	}
}

// CheckPool verifies the system pool's structural invariants: occupancy
// within the MaxSystems bound, at most Parallel systems per geometry, each
// list in release order and filed under its own geometry, and no nil
// retained system. The sweep schedule explorer asserts it after every
// explored schedule — including cancelled ones — to prove scheduling can
// never corrupt the pool.
func (r *Runner) CheckPool() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, max := r.retained(), r.opts.MaxSystems; max > 0 && n > max {
		return fmt.Errorf("experiments: system pool holds %d systems, bound is %d", n, max)
	}
	for g, list := range r.systems {
		if len(list) == 0 || len(list) > r.opts.Parallel {
			return fmt.Errorf("experiments: system pool holds %d systems of one geometry, bound is %d", len(list), r.opts.Parallel)
		}
		for i, e := range list {
			if e == nil || e.sys == nil {
				return fmt.Errorf("experiments: system pool retains a nil system under geometry %+v", g)
			}
			if e.sys.Hier.Config().Geometry() != g {
				return fmt.Errorf("experiments: system pool files a system under another geometry (%q)", e.key)
			}
			if i > 0 && e.lastUse <= list[i-1].lastUse {
				return fmt.Errorf("experiments: system pool list out of release order (%q)", e.key)
			}
		}
	}
	return nil
}

// cachedRun looks a result up, refreshing its recency on a hit.
func (r *Runner) cachedRun(key string) (sim.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cache[key]
	if !ok {
		return sim.Result{}, false
	}
	r.useTick++
	e.lastUse = r.useTick
	return e.res, true
}

// CachedResults reports the result cache's occupancy (bounded by
// MaxResults).
func (r *Runner) CachedResults() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// simulate executes cfg, reusing (and retaining) a built system of cfg's
// geometry when KeepSystems is on. A reused system is reset or rebuilt
// before the run, either of which produces bit-identical results to a
// fresh build; putting it back evicts beyond the pool's bounds.
func (r *Runner) simulate(key string, cfg sim.Config) sim.Result {
	if !r.opts.KeepSystems {
		return sim.Run(cfg)
	}
	sys := r.acquireSystem(key, cfg)
	res := sys.Run()
	r.releaseSystem(key, cfg.Hier.Geometry(), sys)
	return res
}

// RetainedSystems reports how many built systems the runner currently
// retains across geometries (KeepSystems pool occupancy; tests assert the
// MaxSystems bound through it).
func (r *Runner) RetainedSystems() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retained()
}

// RunAll simulates configurations concurrently, preserving order.
func (r *Runner) RunAll(cfgs []sim.Config) []sim.Result {
	out := make([]sim.Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		i, cfg := i, cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = r.Run(cfg)
		}()
	}
	wg.Wait()
	return out
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) *report.Doc
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// All returns every experiment in presentation order.
func All() []Experiment {
	order := map[string]int{
		"table1": 0, "table2": 1, "table3": 2,
		"fig4": 3, "fig5": 4, "fig6": 5, "fig7": 6, "fig8": 7,
		"fig9": 8, "fig10": 9, "fig11": 10, "space": 11, "ablations": 12, "stride": 13,
		"btb": 14, "mixes": 15, "timing": 16,
	}
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, oki := order[out[i].ID]
		oj, okj := order[out[j].ID]
		if oki && okj {
			return oi < oj
		}
		if oki != okj {
			return oki
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	if e, ok := registry[id]; ok {
		return e, nil
	}
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}
