package mc

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"pvsim/internal/sim"
	"pvsim/internal/sweep"
	"pvsim/pv"
)

// defaultSpecPool orders the predictor specs the schedule explorer draws
// its jobs from: a Jobs-job grid uses the first Jobs entries, so a 1-job
// grid simulates one predictor beside its baseline, and the default 3-job
// grid mixes a dedicated-table row, a baseline row and a virtualized row
// — the three code paths a sweep wave can take.
var defaultSpecPool = []string{"16-11a", "none", "PV-8", "8-11a", "PV-16"}

// defaultScheduleScale keeps each simulation at the generator's minimum
// access count; the explorer's subject is the worker pool, not the
// workloads, so every schedule should simulate as little as possible.
const defaultScheduleScale = 1e-6

// ScheduleOptions configure ExploreSchedules.
type ScheduleOptions struct {
	// Jobs is the grid's spec count, 1..len(defaultSpecPool); 0 means 3
	// (the acceptance geometry). The grid runs each of the first Jobs
	// specs over one workload and each seed, plus one matched-baseline
	// simulation per seed.
	Jobs int
	// Workers is the sequenced worker-pool width; 0 means 2.
	Workers int
	// Cancel additionally injects context cancellation as a virtual
	// scheduler choice at every yield point, exploring "the sweep is
	// cancelled here" against every schedule prefix. The no-cancellation
	// schedules remain part of the tree (the branch that never picks the
	// virtual choice).
	Cancel bool
	// Budget caps explored schedules; 0 means DefaultBudget.
	Budget int
	// Workload picks the grid's one workload; empty means "Apache".
	Workload string
	// Seeds is the grid's seed axis; empty means [42]. A repeated seed
	// repeats its jobs' configurations, so a worker can find its job's
	// twin simulating on another worker and take the wait transition.
	Seeds []uint64
	// Fault injects a deliberate defect so tests can prove the explorer
	// catches one and that its counterexample replays. "corrupt-row"
	// flips a byte of each schedule's report before the byte-identity
	// check. Production and CI runs leave it empty.
	Fault string
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
}

// DefaultBudget bounds explored schedules/states when Options.Budget is
// zero — high enough for the acceptance geometries, low enough that a
// runaway tree fails fast in CI.
const DefaultBudget = 50000

func (o ScheduleOptions) withDefaults() ScheduleOptions {
	if o.Jobs == 0 {
		o.Jobs = 3
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Budget == 0 {
		o.Budget = DefaultBudget
	}
	if o.Workload == "" {
		o.Workload = "Apache"
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{42}
	}
	return o
}

func (o ScheduleOptions) grid() (sweep.Grid, error) {
	if o.Jobs < 1 || o.Jobs > len(defaultSpecPool) {
		return sweep.Grid{}, fmt.Errorf("mc: %d jobs (want 1..%d)", o.Jobs, len(defaultSpecPool))
	}
	return sweep.Grid{
		Specs:     defaultSpecPool[:o.Jobs],
		Workloads: []string{o.Workload},
		Seeds:     o.Seeds,
		Scale:     defaultScheduleScale,
	}, nil
}

// Report is one explorer's outcome.
type Report struct {
	// Explored counts fully executed schedules (ExploreSchedules) or
	// distinct control states (ExploreStates).
	Explored int
	// Paths counts complete quiescent paths (ExploreStates only).
	Paths int
	// Waits counts explored schedules in which a worker waited on a twin
	// simulating its job's configuration (ExploreSchedules only).
	Waits int
	// Truncated reports that the budget ended exploration before the
	// tree/state space was exhausted.
	Truncated bool
	// Cex is the first failing run, nil if every explored run passed.
	Cex *Counterexample
}

// mcSched adapts a chooser to sweep.Scheduler, optionally offering
// "cancel the sweep here" as one extra virtual choice at every yield
// point. After the explored run it is switched to fixed mode, where it
// deterministically picks transition 0 without recording — the recovery
// re-run must not add decisions to the explored tree.
type mcSched struct {
	ch        *chooser
	cancel    context.CancelFunc
	inject    bool
	cancelled bool
	fixed     bool
}

func (s *mcSched) Choose(n int, label func(i int) string) int {
	if s.fixed {
		return 0
	}
	if s.inject && !s.cancelled {
		pick := s.ch.Choose(n+1, func(i int) string {
			if i == n {
				return "cancel"
			}
			return label(i)
		})
		if pick < n {
			return pick
		}
		// The virtual choice fired: cancel the sweep at this yield point,
		// then pick which of the still-enabled transitions runs into the
		// freshly cancelled context.
		s.cancelled = true
		s.cancel()
	}
	return s.ch.Choose(n, label)
}

// ExploreSchedules enumerates every schedule of the configured grid on the
// sequenced sweep worker pool and checks, per schedule: the report bytes
// are identical to serial execution; progress fires exactly once per
// merge transition; no signature is simulated twice (a job whose
// configuration is in flight waits for it); the system pool stays within
// its Workers bound and structurally intact; and — on schedules with
// injected cancellation — no result is published, and a deterministic
// re-run on the same engine still reproduces the serial bytes
// (cancellation corrupts nothing).
func ExploreSchedules(opts ScheduleOptions) (Report, error) {
	opts = opts.withDefaults()
	grid, err := opts.grid()
	if err != nil {
		return Report{}, err
	}
	want, err := serialReference(grid)
	if err != nil {
		return Report{}, err
	}
	sigs, err := gridSignatures(grid)
	if err != nil {
		return Report{}, err
	}
	if opts.Log != nil {
		opts.Log("mc: schedules: %d jobs x %d workers, cancel=%v, budget %d", opts.Jobs, opts.Workers, opts.Cancel, opts.Budget)
	}
	waits := 0
	runs, truncated, cex := enumerate(opts.Budget, func(c *chooser) error {
		err := runSchedule(opts, grid, want, sigs, c)
		for _, t := range c.trace {
			if strings.HasPrefix(t, "wait(") {
				waits++
				break
			}
		}
		return err
	})
	if opts.Log != nil {
		opts.Log("mc: schedules: explored %d, %d with an in-flight wait (truncated=%v)", runs, waits, truncated)
	}
	return Report{Explored: runs, Waits: waits, Truncated: truncated, Cex: cex}, nil
}

// ReplaySchedule re-runs the single schedule identified by seed (a
// counterexample's decision trail) and returns its rendered trace and the
// failing check, nil if the schedule passes.
func ReplaySchedule(opts ScheduleOptions, seed string) ([]string, error) {
	opts = opts.withDefaults()
	trail, err := ParseSeed(seed)
	if err != nil {
		return nil, err
	}
	grid, err := opts.grid()
	if err != nil {
		return nil, err
	}
	want, err := serialReference(grid)
	if err != nil {
		return nil, err
	}
	sigs, err := gridSignatures(grid)
	if err != nil {
		return nil, err
	}
	return replay(trail, func(c *chooser) error {
		return runSchedule(opts, grid, want, sigs, c)
	})
}

// shrinkSim cuts every explored simulation to a few dozen accesses via
// the engine's Tweak hook: the explorer's subject is the worker pool, and
// byte-identity only needs the simulations deterministic, not
// representative. Serial reference and explored schedules shrink
// identically, so the comparison stays exact.
func shrinkSim(cfg *sim.Config) {
	cfg.Warmup = 16
	cfg.Measure = 48
	// One core and toy cache geometries: building a system (not simulating
	// it) dominates a shrunken schedule, and an 8MB L2's tag arrays are
	// the bulk of that construction.
	cfg.Hier.Cores = 1
	cfg.Hier.L1I.SizeBytes = 4 << 10
	cfg.Hier.L1D.SizeBytes = 4 << 10
	cfg.Hier.L2.SizeBytes = 64 << 10
}

// serialReference runs the grid once on a plain single-worker engine (no
// scheduler hook: the production goroutine path) and returns the report
// bytes every explored schedule must reproduce.
func serialReference(grid sweep.Grid) ([]byte, error) {
	res, err := sweep.New(sweep.Options{Parallel: 1, Tweak: shrinkSim}).Run(context.Background(), grid, nil)
	if err != nil {
		return nil, fmt.Errorf("mc: serial reference: %w", err)
	}
	return res.JSON()
}

// gridSignatures returns the signature of every simulation the grid runs
// on an explorer's engine: each job's shrunken configuration and its
// matched baseline (the same configuration without a prefetcher).
func gridSignatures(grid sweep.Grid) (map[string]bool, error) {
	jobs, err := grid.Jobs()
	if err != nil {
		return nil, err
	}
	sigs := map[string]bool{}
	for _, j := range jobs {
		cfg := j.Config
		shrinkSim(&cfg)
		sigs[cfg.Signature()] = true
		cfg.Prefetch = pv.Spec{}
		sigs[cfg.Signature()] = true
	}
	return sigs, nil
}

// runSchedule executes one explored schedule on a fresh engine and checks
// its invariants. sigs is gridSignatures(grid). A returned error is the
// counterexample's failed check.
func runSchedule(opts ScheduleOptions, grid sweep.Grid, want []byte, sigs map[string]bool, c *chooser) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := &mcSched{ch: c, cancel: cancel, inject: opts.Cancel}
	// The runner logs one "run <signature>" line per claimed simulation.
	claims := map[string]int{}
	logf := func(format string, args ...interface{}) {
		if sig, ok := strings.CutPrefix(fmt.Sprintf(format, args...), "run "); ok {
			claims[sig]++
		}
	}
	e := sweep.New(sweep.Options{Parallel: opts.Workers, Sched: sched, Tweak: shrinkSim, Log: logf})

	progress := 0
	res, err := e.Run(ctx, grid, func(done, total int) { progress++ })

	// Progress must fire exactly once per merge transition, whatever the
	// schedule: merged rows are always complete, dropped jobs never
	// publish.
	merges := 0
	for _, t := range c.trace {
		if strings.HasPrefix(t, "merge(") {
			merges++
		}
	}
	if progress != merges {
		return fmt.Errorf("schedule published %d progress updates across %d merge transitions", progress, merges)
	}

	if sched.cancelled {
		if err != context.Canceled {
			return fmt.Errorf("cancelled schedule returned %v, want context.Canceled", err)
		}
		if res != nil {
			return fmt.Errorf("cancelled schedule published a result with %d rows", len(res.Rows))
		}
	} else {
		if err != nil {
			return fmt.Errorf("schedule failed: %w", err)
		}
		got, jerr := res.JSON()
		if jerr != nil {
			return jerr
		}
		if opts.Fault == "corrupt-row" && len(got) > 0 {
			got[len(got)/2] ^= 0x01
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("schedule diverged from serial reference (%d vs %d bytes)", len(got), len(want))
		}
	}

	if err := checkClaims(claims, sigs, !sched.cancelled); err != nil {
		return err
	}
	if err := e.CheckPool(); err != nil {
		return err
	}

	// A cancelled schedule must leave the engine fully usable: the same
	// engine, re-run deterministically with a fresh context, must
	// reproduce the serial bytes and keep its pool bounded.
	if sched.cancelled {
		sched.fixed = true
		res2, err2 := e.Run(context.Background(), grid, nil)
		if err2 != nil {
			return fmt.Errorf("re-run after cancellation failed: %w", err2)
		}
		got, jerr := res2.JSON()
		if jerr != nil {
			return jerr
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("re-run after cancellation diverged from serial reference")
		}
		if err := checkClaims(claims, sigs, true); err != nil {
			return fmt.Errorf("after cancellation re-run: %w", err)
		}
		if err := e.CheckPool(); err != nil {
			return fmt.Errorf("after cancellation re-run: %w", err)
		}
	}
	return nil
}

// checkClaims compares the signatures claimed for simulation with the
// grid's. The engine's runner never forgets a result during a schedule, so
// no signature simulates twice and none outside the grid simulates at all;
// once the grid has run to completion, every one of its signatures has
// simulated, so a count that stays empty cannot pass.
func checkClaims(claims map[string]int, sigs map[string]bool, complete bool) error {
	for sig, n := range claims {
		if n > 1 {
			return fmt.Errorf("%d simulations of one signature (%.60s...)", n, sig)
		}
		if !sigs[sig] {
			return fmt.Errorf("simulated a signature outside the grid (%.60s...)", sig)
		}
	}
	if complete && len(claims) != len(sigs) {
		return fmt.Errorf("%d signatures simulated, the grid has %d", len(claims), len(sigs))
	}
	return nil
}
