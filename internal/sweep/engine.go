package sweep

import (
	"context"
	"fmt"
	"sync"

	"pvsim/internal/experiments"
	"pvsim/internal/sim"
)

// Options tune an Engine.
type Options struct {
	// Parallel caps concurrent simulations (0 = GOMAXPROCS) and the
	// systems the engine retains for reuse. Output is byte-identical at
	// every value.
	Parallel int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
	// Sched, when non-nil, replaces the goroutine worker pool with a
	// sequenced single-threaded execution whose every scheduling decision
	// the Scheduler makes — the model-checking hook internal/mc drives.
	// Production sweeps leave it nil (zero overhead: the goroutine path
	// never consults it). Output is byte-identical either way; internal/mc
	// exists to prove exactly that on every interleaving.
	Sched Scheduler
	// Tweak, when non-nil, edits every expanded configuration — jobs and
	// matched baselines alike — just before simulation. The model checker
	// uses it to shrink each simulation to a few dozen accesses so
	// exhaustively enumerating thousands of schedules stays within its
	// time budget; production sweeps leave it nil.
	Tweak func(cfg *sim.Config)
}

// Progress is called after each simulation completes, with the number of
// finished simulations (baseline runs included) and the total. Calls are
// serialized and done increases by one per call, but the callback runs on
// worker goroutines under the engine's progress lock: keep it cheap and
// never call back into the engine from it.
type Progress func(done, total int)

// RowSink receives each finished Row strictly in expansion order: row i is
// delivered only after rows 0..i-1 have been delivered, whatever order the
// worker pool completes jobs in. That makes the sink's byte stream — the
// serve API's streaming endpoint frames each row with StreamRow — as
// deterministic as the merged Result. Calls are serialized under the
// release buffer's lock: keep the sink cheap and never call back into the
// engine from it.
type RowSink func(Row)

// Releaser is the expansion-order release buffer every run path shares:
// rows arrive in any order and at any granularity — one at a time from
// the engine's job wave, a whole shard partial at a time from the
// service's dispatcher — and leave for the sink as soon as they extend
// the ready prefix of the range [start, start+n). It is safe for
// concurrent use; the sink runs under its lock.
type Releaser struct {
	mu    sync.Mutex
	sink  RowSink
	start int
	rows  []Row
	ready []bool
	next  int // rows[:next] have gone to the sink
}

// NewReleaser buffers the n rows of jobs [start, start+n) for sink, which
// may be nil.
func NewReleaser(start, n int, sink RowSink) *Releaser {
	return &Releaser{sink: sink, start: start, rows: make([]Row, n), ready: make([]bool, n)}
}

// Put stores rows at their Job indices, each inside the buffer's range
// and put once, then releases the ready prefix.
func (r *Releaser) Put(rows ...Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, row := range rows {
		i := row.Job - r.start
		r.rows[i], r.ready[i] = row, true
	}
	for ; r.next < len(r.rows) && r.ready[r.next]; r.next++ {
		if r.sink != nil {
			r.sink(r.rows[r.next])
		}
	}
}

// Result assembles g's finished sweep from a buffer spanning all of g's
// jobs once every row has been put; it errors while any row is missing.
func (r *Releaser) Result(g Grid) (*Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < len(r.rows) {
		return nil, fmt.Errorf("sweep: %d of %d rows released", r.next, len(r.rows))
	}
	return g.result(r.rows), nil
}

// Engine runs sweeps. It is safe for concurrent use (the serve API runs
// sweeps concurrently on one engine) and keeps its system pool across runs
// and sweeps. A job takes a retained system of its hierarchy geometry and
// rebuilds it around its cache arrays, whatever the job's predictor.
type Engine struct {
	opts   Options
	runner *experiments.Runner
}

// New builds an engine.
func New(opts Options) *Engine {
	return &Engine{
		opts: opts,
		runner: experiments.NewRunner(experiments.Options{
			Scale:    1.0, // unused: the engine builds every config itself
			Parallel: opts.Parallel,
			Log:      opts.Log,
		}),
	}
}

// RetainedSystems reports the system pool's occupancy (at most
// Parallel).
func (e *Engine) RetainedSystems() int { return e.runner.RetainedSystems() }

// CheckPool verifies the system pool's structural invariants — at most
// Parallel systems, none nil, none retained twice. The model checker
// (internal/mc) calls it after every explored schedule, including
// cancelled ones.
func (e *Engine) CheckPool() error { return e.runner.CheckPool() }

// Run expands the grid and executes it. Results are merged in job
// expansion order regardless of completion order, so the returned Result —
// and everything rendered from it — is byte-identical at any Parallel.
// Cancelling ctx stops dispatching new jobs; jobs already simulating finish
// (a simulation step has no preemption point) and Run returns ctx.Err().
// progress may be nil.
func (e *Engine) Run(ctx context.Context, g Grid, progress Progress) (*Result, error) {
	return e.RunRows(ctx, g, progress, nil)
}

// RunRows is Run with a streaming sink: each finished Row is delivered to
// sink in expansion order as soon as it — and every row before it — has
// completed, so a service can stream partial results while the sweep is
// still running. The returned Result is byte-identical to Run's (the sink
// observes exactly the rows the Result carries, in the same order). A nil
// sink makes RunRows identical to Run. On cancellation the sink stops
// receiving rows (the partial prefix it already saw is exactly a prefix of
// the full run's rows) and RunRows returns ctx.Err() with a nil Result:
// cancelled sweeps publish no result. The whole grid runs as the single
// shard [0, jobs) through RunShard, the engine's one run body.
func (e *Engine) RunRows(ctx context.Context, g Grid, progress Progress, sink RowSink) (*Result, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	p, err := e.RunShard(ctx, g, jobs, Shard{End: len(jobs)}, progress, sink)
	if err != nil {
		return nil, err
	}
	return g.result(p.Rows), nil
}

// wave runs cfgs over the bounded worker pool, writing each result to its
// pre-assigned slot. Parallelism is bounded twice — by the worker count
// here and by the runner's semaphore — with the same value, so the worker
// pool is the effective bound. merged, when non-nil, runs after out[i] is
// written and before the progress note — the row-reduction hook of the job
// wave. With Options.Sched set the goroutine pool is replaced by the
// sequenced model-checking execution (same per-job transitions,
// scheduler-chosen order).
func (e *Engine) wave(ctx context.Context, cfgs []sim.Config, out []sim.Result, note func(), merged func(i int)) error {
	if e.opts.Sched != nil {
		return e.waveSequenced(ctx, cfgs, out, note, merged)
	}
	if len(cfgs) == 0 {
		return ctx.Err()
	}
	workers := e.runner.Options().Parallel
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// A job can be dispatched in the same instant the sweep is
				// cancelled (the feeder's select picks pseudo-randomly among
				// ready branches): drop it here without simulating or
				// publishing progress, so cancellation never publishes work
				// and never starts a new simulation. Jobs that began before
				// the cancellation finish and merge — a simulation has no
				// preemption point, and a merged result is always complete.
				if ctx.Err() != nil {
					continue
				}
				out[i] = e.runner.Run(cfgs[i])
				if merged != nil {
					merged(i)
				}
				note()
			}
		}()
	}
feed:
	for i := range cfgs {
		// Priority check: once ctx is cancelled, stop feeding immediately
		// instead of letting the select race dispatch more jobs.
		if ctx.Err() != nil {
			break feed
		}
		select {
		case <-ctx.Done():
			break feed
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	return ctx.Err()
}
