package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

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
	// Parallel caps concurrent simulations (0 = GOMAXPROCS) and the number
	// of built systems the runner retains for reuse.
	Parallel int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
}

// maxCachedResults bounds the result cache, least recently used first:
// results are kilobytes of statistics each, so a few thousand keep a
// long-lived server's memory flat while still deduplicating
// configurations across overlapping grids. No experiment comes near it
// (`pvsim all` runs about 300 simulations).
const maxCachedResults = 4096

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

// Runner executes simulations with caching and bounded parallelism. It
// simulates each signature at most once at a time: a Run whose
// configuration is already simulating waits for that result instead of
// simulating it again.
type Runner struct {
	opts Options

	mu      sync.Mutex
	cache   map[string]*cachedResult
	useTick uint64 // recency clock for the result cache's LRU eviction
	// inflight maps each signature being simulated to the Twin its
	// concurrent callers wait on; StoreResult resolves and removes it.
	inflight map[string]*Twin
	// systems is the system pool: at most Parallel retained systems of any
	// geometries, in release order, so systems[0] is the least recently
	// released.
	systems []*sim.System
	sem     chan struct{}
}

// Twin is a simulation in flight: the claim of the first caller that
// missed the result cache for a signature. Later callers of the same
// signature wait on it rather than simulate again.
type Twin struct {
	done chan struct{}
	res  sim.Result
}

// Done is closed once the twin's result is stored.
func (t *Twin) Done() <-chan struct{} { return t.done }

// Result is the twin's result; it is valid once Done is closed.
func (t *Twin) Result() sim.Result { return t.res }

// cachedResult is one cached result plus the recency stamp the result
// cache's eviction orders by.
type cachedResult struct {
	res     sim.Result
	lastUse uint64
}

// evictOldestResult drops the least recently used result once the cache
// holds more than maxCachedResults; the caller holds r.mu.
func (r *Runner) evictOldestResult() {
	if len(r.cache) <= maxCachedResults {
		return
	}
	oldestKey := ""
	oldest := uint64(0)
	for k, e := range r.cache {
		if oldestKey == "" || e.lastUse < oldest {
			oldestKey, oldest = k, e.lastUse
		}
	}
	delete(r.cache, oldestKey)
}

// NewRunner builds a runner.
func NewRunner(opts Options) *Runner {
	o := opts.normalized()
	return &Runner{
		opts:     o,
		cache:    make(map[string]*cachedResult),
		inflight: make(map[string]*Twin),
		sem:      make(chan struct{}, o.Parallel),
	}
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
// configuration already ran and waiting for the result when one is
// simulating. Only a caller that claims the signature takes one of the
// Parallel slots, so a waiter never holds a slot its twin needs.
func (r *Runner) Run(cfg sim.Config) sim.Result {
	key := cacheKey(cfg)
	res, twin, claimed := r.lookup(key)
	switch {
	case twin != nil:
		<-twin.done
		return twin.res
	case !claimed:
		return res
	}
	r.sem <- struct{}{}
	res = r.simulate(cfg)
	<-r.sem
	r.storeResult(key, res)
	return res
}

// Lookup is Run's first transition. It returns cfg's cached result
// (refreshing its recency), or the Twin already simulating cfg, or — when
// there is neither — claims cfg for the caller (claimed is true). A caller
// that claims must simulate cfg (AcquireSystem, the system's Run,
// ReleaseSystem) and StoreResult it, which resolves the Twin every later
// caller waits on. Together these transitions decompose Run, so the sweep
// engine's sequenced model-checking mode (internal/mc) drives exactly the
// code Run runs, the wait on a twin included.
func (r *Runner) Lookup(cfg sim.Config) (res sim.Result, twin *Twin, claimed bool) {
	return r.lookup(cacheKey(cfg))
}

func (r *Runner) lookup(key string) (sim.Result, *Twin, bool) {
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.useTick++
		e.lastUse = r.useTick
		r.mu.Unlock()
		return e.res, nil, false
	}
	if t := r.inflight[key]; t != nil {
		r.mu.Unlock()
		return sim.Result{}, t, false
	}
	r.inflight[key] = &Twin{done: make(chan struct{})}
	r.mu.Unlock()
	r.opts.Log("run %s", key)
	return sim.Result{}, nil, true
}

// StoreResult records cfg's finished result in the bounded result cache
// and hands it to the callers waiting on cfg's Twin (the step Run performs
// after simulating).
func (r *Runner) StoreResult(cfg sim.Config, res sim.Result) {
	r.storeResult(cacheKey(cfg), res)
}

func (r *Runner) storeResult(key string, res sim.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.useTick++
	r.cache[key] = &cachedResult{res: res, lastUse: r.useTick}
	r.evictOldestResult()
	if t := r.inflight[key]; t != nil {
		t.res = res
		delete(r.inflight, key)
		close(t.done)
	}
}

// AcquireSystem claims a system for cfg — the pool-take transition of
// simulate. The least recently released system of cfg's geometry is
// rebuilt around its hierarchy for cfg (sim.System.Rebuild); a pool miss
// builds fresh. Pair every call with ReleaseSystem after the system's Run.
func (r *Runner) AcquireSystem(cfg sim.Config) *sim.System {
	g := cfg.Hier.Geometry()
	r.mu.Lock()
	var sys *sim.System
	for i, s := range r.systems {
		if s.Hier.Config().Geometry() == g {
			sys = s
			r.systems = slices.Delete(r.systems, i, i+1)
			break
		}
	}
	r.mu.Unlock()
	if sys == nil {
		return sim.NewSystem(cfg)
	}
	return sys.Rebuild(cfg)
}

// ReleaseSystem returns a claimed system to the pool — the pool-put
// transition of simulate. Past Parallel retained systems the least
// recently released one is dropped.
func (r *Runner) ReleaseSystem(sys *sim.System) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.systems = append(r.systems, sys)
	if len(r.systems) > r.opts.Parallel {
		r.systems = slices.Delete(r.systems, 0, 1)
	}
}

// CheckPool verifies the system pool's structural invariants: at most
// Parallel retained systems, none nil and none retained twice. The sweep
// schedule explorer asserts it after every explored schedule — including
// cancelled ones — to prove scheduling can never corrupt the pool.
func (r *Runner) CheckPool() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.systems); n > r.opts.Parallel {
		return fmt.Errorf("experiments: system pool holds %d systems, bound is %d", n, r.opts.Parallel)
	}
	for i, sys := range r.systems {
		if sys == nil {
			return fmt.Errorf("experiments: system pool retains a nil system")
		}
		if slices.Index(r.systems[:i], sys) >= 0 {
			return fmt.Errorf("experiments: system pool retains one system twice")
		}
	}
	return nil
}

// CachedResults reports the result cache's occupancy.
func (r *Runner) CachedResults() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// simulate executes cfg on a pooled system of cfg's geometry — rebuilt
// before the run, which is bit-identical to a fresh build — and puts it
// back.
func (r *Runner) simulate(cfg sim.Config) sim.Result {
	sys := r.AcquireSystem(cfg)
	res := sys.Run()
	r.ReleaseSystem(sys)
	return res
}

// RetainedSystems reports how many built systems the runner currently
// retains (pool occupancy, at most Parallel).
func (r *Runner) RetainedSystems() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.systems)
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

// runEach runs every base config once with each prefetcher and returns,
// per base, its results in prefetcher order.
func (r *Runner) runEach(bases []sim.Config, pcs ...sim.PrefetcherConfig) [][]sim.Result {
	cfgs := make([]sim.Config, 0, len(bases)*len(pcs))
	for _, c := range bases {
		for _, pc := range pcs {
			c.Prefetch = pc
			cfgs = append(cfgs, c)
		}
	}
	results := r.RunAll(cfgs)
	out := make([][]sim.Result, len(bases))
	for i := range out {
		out[i] = results[i*len(pcs) : (i+1)*len(pcs)]
	}
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
		"btb": 14, "mixes": 15, "timing": 16, "calib": 17,
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
