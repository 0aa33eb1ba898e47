package sweep

import (
	"context"
	"fmt"

	"pvsim/internal/experiments"
	"pvsim/internal/sim"
)

// Scheduler is the model-checking hook of the worker pool. When
// Options.Sched is non-nil the engine replaces its goroutine pool with a
// sequenced single-threaded execution: at every decision point it lists
// the enabled transitions — job pickup (with its cancellation check),
// lookup and pool take, the wait on a twin simulating the same
// configuration, simulate, pool put, result merge — and asks the scheduler
// which one fires next. Exhaustively enumerating the scheduler's answers
// (internal/mc does) enumerates every interleaving the real pool can
// exhibit at those decision points. Production runs leave Sched nil and
// pay zero overhead: the goroutine pool path does not consult it.
type Scheduler interface {
	// Choose picks one of n enabled transitions (0 <= pick < n). label
	// renders transition i for counterexample traces; implementations that
	// do not trace may ignore it.
	Choose(n int, label func(i int) string) int
}

// Sequenced worker stages. A worker holding a job advances through them in
// order; each stage is one atomic transition of the sequenced wave and
// mirrors one section of the goroutine worker's loop.
const (
	stageStart = iota // post-pickup cancellation check
	stageTake         // Runner.Lookup, then pool take on a claim
	stageWait         // take the in-flight twin's result; enabled once it is stored
	stageRun          // the simulation itself
	stagePut          // pool put + result-cache store
	stageMerge        // write the result slot, publish progress
)

func stageName(s int) string {
	switch s {
	case stageStart:
		return "start"
	case stageTake:
		return "take"
	case stageWait:
		return "wait"
	case stageRun:
		return "run"
	case stagePut:
		return "put"
	case stageMerge:
		return "merge"
	}
	return fmt.Sprintf("stage%d", s)
}

// seqWorker is one sequenced worker's state between transitions.
type seqWorker struct {
	job   int // index into cfgs; -1 when idle
	stage int
	sys   *sim.System
	twin  *experiments.Twin
	res   sim.Result
}

// waveSequenced is the sequenced equivalent of wave: same per-job code, in
// scheduler-chosen order, on the calling goroutine. It preserves wave's
// semantics exactly: jobs are fed in index order, the feeder stops at the
// first observed cancellation, a worker that picked a job up after
// cancellation drops it without simulating or publishing progress, and a
// worker already simulating finishes and merges (a simulation has no
// preemption point). A worker whose job's configuration another worker
// has claimed waits for it: its wait transition is enabled only once the
// twin's result is stored, as Run blocks on the twin.
func (e *Engine) waveSequenced(ctx context.Context, cfgs []sim.Config, out []sim.Result, note func(), merged func(i int)) error {
	if len(cfgs) == 0 {
		return ctx.Err()
	}
	workers := e.runner.Options().Parallel
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	ws := make([]seqWorker, workers)
	for i := range ws {
		ws[i].job = -1
	}
	next := 0        // next job to feed, in index order
	stopped := false // the feeder observed cancellation

	for {
		// Enabled transitions. Idle workers are interchangeable (they carry
		// no state), so at most one pickup is enabled per round — a sound
		// symmetry reduction that shrinks the schedule tree without losing
		// any distinguishable interleaving.
		type transition struct {
			w    int
			name string
		}
		var enabled []transition
		pickupListed := false
		busy := 0
		for w := range ws {
			if ws[w].job < 0 {
				if next < len(cfgs) && !stopped && !pickupListed {
					enabled = append(enabled, transition{w, fmt.Sprintf("pickup(job %d)", next)})
					pickupListed = true
				}
				continue
			}
			busy++
			if ws[w].stage == stageWait && !stored(ws[w].twin) {
				continue
			}
			enabled = append(enabled, transition{w, fmt.Sprintf("%s(job %d)", stageName(ws[w].stage), ws[w].job)})
		}
		if len(enabled) == 0 {
			if busy > 0 {
				// Every busy worker waits on a twin no worker is simulating.
				return fmt.Errorf("sweep: sequenced wave stalled: %d workers wait on twins nobody simulates", busy)
			}
			break
		}
		pick := e.opts.Sched.Choose(len(enabled), func(i int) string { return enabled[i].name })
		if pick < 0 || pick >= len(enabled) {
			panic(fmt.Sprintf("sweep: scheduler chose %d of %d transitions", pick, len(enabled)))
		}
		t := enabled[pick]
		wk := &ws[t.w]

		if wk.job < 0 {
			// Pickup: the feeder's priority cancellation check runs at the
			// moment of dispatch, exactly like the goroutine feeder's.
			if ctx.Err() != nil {
				stopped = true
				continue
			}
			wk.job = next
			wk.stage = stageStart
			next++
			continue
		}

		switch wk.stage {
		case stageStart:
			if ctx.Err() != nil {
				// The job was dispatched in the same instant the sweep was
				// cancelled: drop it without simulating or publishing.
				*wk = seqWorker{job: -1}
				continue
			}
			wk.stage = stageTake
		case stageTake:
			res, twin, claimed := e.runner.Lookup(cfgs[wk.job])
			switch {
			case claimed:
				wk.sys = e.runner.AcquireSystem(cfgs[wk.job])
				wk.stage = stageRun
			case twin != nil:
				wk.twin = twin
				wk.stage = stageWait
			default:
				wk.res = res
				wk.stage = stageMerge
			}
		case stageWait:
			wk.res = wk.twin.Result()
			wk.twin = nil
			wk.stage = stageMerge
		case stageRun:
			wk.res = wk.sys.Run()
			wk.stage = stagePut
		case stagePut:
			e.runner.ReleaseSystem(wk.sys)
			e.runner.StoreResult(cfgs[wk.job], wk.res)
			wk.sys = nil
			wk.stage = stageMerge
		case stageMerge:
			out[wk.job] = wk.res
			if merged != nil {
				merged(wk.job)
			}
			note()
			*wk = seqWorker{job: -1}
		}
	}
	return ctx.Err()
}

// stored reports whether t's result is in.
func stored(t *experiments.Twin) bool {
	select {
	case <-t.Done():
		return true
	default:
		return false
	}
}
