package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pvsim/internal/sim"
)

// Horizontal sharding: a grid's jobs split into contiguous expansion-order
// ranges that cut only between baseline cells, each range runnable by an
// independent worker process, the partial results merged back in
// expansion order. The merged Result is byte-identical to an unsharded
// Run — rows are pure functions of the job's config and its matched
// baseline, both of which a shard recomputes from the grid itself — so
// sharding extends the engine's p1==p8 and streamed==serial determinism
// pins across process boundaries.

// Shard is one contiguous expansion-order slice of a grid's jobs: the
// unit the service dispatches to a worker process. Baselines lists the
// matched (seed, scenario) baseline cells the shard's jobs need; a shard
// runs those itself, so shards are self-contained. A planned shard owns
// its cells outright — no other shard of the plan has a job in them — so
// each baseline is simulated once across the whole plan.
type Shard struct {
	Index int `json:"index"`
	// Start and End bound the shard's job range [Start, End) in grid
	// expansion order.
	Start int `json:"start"`
	End   int `json:"end"`
	// Baselines are the matched baseline cells the range needs, in
	// first-use order.
	Baselines []BaselineRef `json:"baselines"`
}

// BaselineRef names one matched-baseline cell: the (seed, scenario) pair
// whose no-prefetcher run the shard's coverage rows are measured against.
type BaselineRef struct {
	Seed     uint64 `json:"seed"`
	Scenario string `json:"scenario"`
}

// Sims reports how many simulations the shard runs: its jobs plus its
// baseline cells. Across a plan from PlanShards the sum is the grid's
// TotalSims, since no baseline cell spans two shards.
func (s Shard) Sims() int { return s.End - s.Start + len(s.Baselines) }

// PlanShards cuts expansion-ordered jobs into min(n, cells) contiguous
// ranges, cutting only where no baseline cell has jobs on both sides, and
// lists each range's baseline cells. A cell's jobs are contiguous in
// expansion order, so every cell boundary is a cut point; ranges are
// balanced by cell count (the first cells%n ranges carry one extra cell).
// A grid that repeats an axis value meets its cells again further on; the
// cells in between then stay in one range, so their baselines still run
// once each.
func PlanShards(jobs []Job, n int) ([]Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("sweep: shard count %d (want >= 1)", n)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sweep: no jobs to shard")
	}
	last := make(map[baselineCell]int)
	for i, j := range jobs {
		last[baselineCell{j.Seed, j.Scenario}] = i
	}
	// cuts[k] is the end of the k-th indivisible run of cells: the first
	// index at which every cell seen so far has run out of jobs.
	var cuts []int
	reach := -1
	for i, j := range jobs {
		reach = max(reach, last[baselineCell{j.Seed, j.Scenario}])
		if reach == i {
			cuts = append(cuts, i+1)
		}
	}
	n = min(n, len(cuts))
	shards := make([]Shard, 0, n)
	size, extra := len(cuts)/n, len(cuts)%n
	start, used := 0, 0
	for i := 0; i < n; i++ {
		used += size
		if i < extra {
			used++
		}
		end := cuts[used-1]
		sh := Shard{Index: i, Start: start, End: end}
		seen := map[baselineCell]bool{}
		for _, j := range jobs[start:end] {
			c := baselineCell{j.Seed, j.Scenario}
			if !seen[c] {
				seen[c] = true
				sh.Baselines = append(sh.Baselines, BaselineRef{Seed: j.Seed, Scenario: j.Scenario})
			}
		}
		shards = append(shards, sh)
		start = end
	}
	return shards, nil
}

// Partial is one shard's result: the rows for its job range, in expansion
// order. It is the shard protocol's wire format — a worker returns it, the
// coordinator checks it with CheckPartial and puts its rows into a
// Releaser — and its rows are exactly the rows an unsharded run computes
// for the same indices, so assembling is pure concatenation. Row floats
// survive a JSON round trip bit-exactly (Go emits the shortest
// representation that parses back to the same value), so a Partial that
// crossed the wire assembles byte-identically too.
type Partial struct {
	Hash  string `json:"hash"`
	Shard int    `json:"shard"`
	Start int    `json:"start"`
	End   int    `json:"end"`
	Rows  []Row  `json:"rows"`
}

// CheckPartial checks a partial answering shard sh of a plan over jobs
// against the coordinator's own expansion: the range asked for, one row
// per job, and every row's job index and config hash. A partial it
// accepts can go into a Releaser spanning sh's jobs; one it rejects (a
// worker answering the wrong rows) is as failed as no answer at all.
func CheckPartial(p *Partial, jobs []Job, sh Shard) error {
	if p.Start != sh.Start || p.End != sh.End || len(p.Rows) != sh.End-sh.Start {
		return fmt.Errorf("sweep: partial answers range [%d,%d) with %d rows, asked [%d,%d)",
			p.Start, p.End, len(p.Rows), sh.Start, sh.End)
	}
	for i, r := range p.Rows {
		j := jobs[sh.Start+i]
		if want := j.Config.Hash(); r.Job != j.Index || r.Config != want {
			return fmt.Errorf("sweep: partial row %d is job %d config %s, want job %d config %s",
				i, r.Job, r.Config, j.Index, want)
		}
	}
	return nil
}

// ErrShardRange reports a shard whose job range is empty or reaches
// outside its grid's jobs — a bad request, not a failed simulation.
var ErrShardRange = errors.New("sweep: shard range outside the grid's jobs")

// RunShard runs one planned shard — the jobs in [sh.Start, sh.End), after
// a wave of the matched baselines they need — and returns their rows as
// a Partial. It is the engine's one run body: Run and RunRows send the
// whole grid through it as the single shard [0, jobs). Rows are
// deterministic functions of config and baseline, so any shard plan
// merges byte-identically to Run. jobs is g's expansion if the caller
// holds it; nil makes RunShard expand g. sink (may be nil) receives the
// rows in expansion order as they complete. Cancellation behaves like
// Run: dispatch stops, in-flight simulations finish unpublished, and
// RunShard returns ctx.Err(). progress counts the shard's own
// simulations (jobs + its baselines) and may be nil.
func (e *Engine) RunShard(ctx context.Context, g Grid, jobs []Job, sh Shard, progress Progress, sink RowSink) (*Partial, error) {
	if jobs == nil {
		var err error
		if jobs, err = g.Jobs(); err != nil {
			return nil, err
		}
	}
	if sh.Start < 0 || sh.End > len(jobs) || sh.Start >= sh.End {
		return nil, fmt.Errorf("%w: [%d,%d) of %d jobs", ErrShardRange, sh.Start, sh.End, len(jobs))
	}
	sub := jobs[sh.Start:sh.End]

	baseCfgs, baseIdx := g.baselineCells(sub)
	total := len(baseCfgs) + len(sub)
	var mu sync.Mutex
	done := 0
	note := func() {
		if progress == nil {
			return
		}
		// The callback runs under the lock so calls are serialized and done
		// is strictly increasing at the observer.
		mu.Lock()
		done++
		progress(done, total)
		mu.Unlock()
	}

	jobCfgs := make([]sim.Config, len(sub))
	for i, j := range sub {
		jobCfgs[i] = j.Config
	}
	if e.opts.Tweak != nil {
		for i := range baseCfgs {
			e.opts.Tweak(&baseCfgs[i])
		}
		for i := range jobCfgs {
			e.opts.Tweak(&jobCfgs[i])
		}
	}

	baseRes := make([]sim.Result, len(baseCfgs))
	if err := e.wave(ctx, baseCfgs, baseRes, note, nil); err != nil {
		return nil, err
	}

	// Job wave: each completed job reduces to its Row at once (every
	// baseline is in by now) and goes to the release buffer, which hands
	// the sink each row the moment every row before it is in.
	jobRes := make([]sim.Result, len(sub))
	rel := NewReleaser(sh.Start, len(sub), sink)
	reduce := func(i int) {
		base := baseRes[baseIdx[baselineCell{sub[i].Seed, sub[i].Scenario}]]
		rel.Put(rowFor(sub[i], base, jobRes[i]))
	}
	if err := e.wave(ctx, jobCfgs, jobRes, note, reduce); err != nil {
		return nil, err
	}
	return &Partial{Hash: g.Hash(), Shard: sh.Index, Start: sh.Start, End: sh.End, Rows: rel.rows}, nil
}
