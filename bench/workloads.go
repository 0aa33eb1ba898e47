package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"pvsim/internal/experiments"
	"pvsim/internal/memsys"
	"pvsim/internal/sim"
	"pvsim/internal/simtest"
	"pvsim/internal/sweep"
	"pvsim/internal/timing"
	"pvsim/internal/workloads"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// clients is the closed-loop caller count, capped at the host's CPUs.
	clients int
	// minOps is how many ops every run completes, however short: the
	// output digest and the exact counts cover these. tinyOps replaces it
	// under Options.Tiny.
	minOps, tinyOps int
	// start builds the workload's stack and warms it up: the set-up that
	// setup_s times.
	start func(env) (stack, error)
}

var catalog = []workload{
	{name: "run-pv8", clients: 1, minOps: 8, tinyOps: 2, start: startRunPV8},
	{name: "sweep-timing", clients: 1, minOps: 2, tinyOps: 1, start: startSweepTiming},
	{name: "serve-local", clients: 2, minOps: 16, tinyOps: 12, start: func(e env) (stack, error) { return startServe(e, false) }},
	{name: "serve-sharded", clients: 2, minOps: 16, tinyOps: 12, start: func(e env) (stack, error) { return startServe(e, true) }},
}

// env is what a workload's stack is built from.
type env struct {
	seed    uint64
	tiny    bool
	clients int
	prefix  int       // the ops every run completes: minOps, or tinyOps
	dir     string    // scratch directory
	rec     *Recorder // nil when untraced
}

// tinyScale floors every simulation at its 1000-access minimum.
const tinyScale = 0.0025

// scale is the workload's simulation scale, or the tiny one.
func (e env) scale(full float64) float64 {
	if e.tiny {
		return tinyScale
	}
	return full
}

// warmSeed is the seed of warm-up work k, far from the measured ops' seeds
// seed+i.
func (e env) warmSeed(k int) uint64 { return e.seed + 1<<32 + uint64(k) }

// stack is a workload that start has set up; it runs the ops.
type stack interface {
	// op runs op i; it is called from up to env.clients goroutines.
	op(i int) opResult
	// close stops everything start began, reporting checks that span the
	// whole run.
	close() error
}

// opResult is one op's outcome.
type opResult struct {
	// source is the op whose input this op repeats, or the op itself.
	source   int
	lat      time.Duration
	firstRow time.Duration // serve only: submit to the first streamed row
	accesses uint64        // simulated accesses, baselines included
	digest   [32]byte      // of the op's output
	counts   counts
	err      error
	// start and end bound the op in wall time; round is the round it ran in.
	start, end time.Time
	round      int
}

// counts are the exact per-layer counts read from an op's public results.
type counts struct {
	accesses                                               uint64
	reads, misses                                          uint64
	l2Requests, l2PVRequests, offchipReads                 uint64
	pvLookups, pvHits, pvFetches, pvWritebacks, mshrStalls uint64
	issued, unused                                         uint64
	ipcSum, cpaSum                                         float64
	ipcN, cpaN                                             int
	planned, executed                                      uint64
	cacheHits                                              uint64
}

func (c *counts) add(o counts) {
	c.accesses += o.accesses
	c.reads += o.reads
	c.misses += o.misses
	c.l2Requests += o.l2Requests
	c.l2PVRequests += o.l2PVRequests
	c.offchipReads += o.offchipReads
	c.pvLookups += o.pvLookups
	c.pvHits += o.pvHits
	c.pvFetches += o.pvFetches
	c.pvWritebacks += o.pvWritebacks
	c.mshrStalls += o.mshrStalls
	c.issued += o.issued
	c.unused += o.unused
	c.ipcSum += o.ipcSum
	c.cpaSum += o.cpaSum
	c.ipcN += o.ipcN
	c.cpaN += o.cpaN
	c.planned += o.planned
	c.executed += o.executed
	c.cacheHits += o.cacheHits
}

// addRow adds the counts a sweep row carries.
func (c *counts) addRow(r sweep.Row) {
	c.reads += r.Reads
	c.misses += r.Misses
	c.issued += r.Issued
	c.unused += r.Unused
	if r.IPC > 0 {
		c.ipcSum += r.IPC
		c.ipcN++
	}
	if r.CPA > 0 {
		c.cpaSum += r.CPA
		c.cpaN++
	}
}

// simAccesses is the access count of one simulation of cfg.
func simAccesses(cfg sim.Config) uint64 {
	return uint64(cfg.Hier.Cores * (cfg.Warmup + cfg.Measure))
}

// run-pv8: one sequential caller building and running a PV-8 system on
// Apache with the cost fold on, the single-run `pvsim` path.

type pv8Stack struct {
	env
	w workloads.Workload
}

func startRunPV8(e env) (stack, error) {
	w, err := workloads.ByName("Apache")
	if err != nil {
		return nil, err
	}
	d := &pv8Stack{env: e, w: w}
	// One untimed run, so the first timed one finds warm code and heap.
	if r := d.run(-1, e.warmSeed(0)); r.err != nil {
		return nil, r.err
	}
	return d, nil
}

func (d *pv8Stack) op(i int) opResult { return d.run(i, d.seed+uint64(i)) }

func (d *pv8Stack) run(i int, seed uint64) opResult {
	cfg := experiments.ConfigFor(d.w, d.scale(0.1), seed)
	cfg.Prefetch = sim.PV8
	cfg.Cost = timing.Config{Enabled: true}

	root := d.rec.Begin("op", i, -1)
	defer d.rec.End(root)
	t0 := time.Now()
	sp := d.rec.Begin("sim.NewSystem", i, root)
	sys := sim.NewSystem(cfg)
	d.rec.End(sp)
	sp = d.rec.Begin("sim.Run", i, root)
	res := sys.Run()
	d.rec.End(sp)

	r := opResult{source: i, lat: time.Since(t0), accesses: simAccesses(cfg)}
	if err := simtest.Check(&res); err != nil {
		r.err = err
		return r
	}
	pt := res.ProxyTotals()
	r.counts = counts{
		accesses:     r.accesses,
		reads:        res.L1DReads(),
		misses:       res.L1DReadMisses(),
		l2Requests:   res.Mem.L2RequestsTotal(),
		l2PVRequests: res.Mem.L2Requests[memsys.PVFetch] + res.Mem.L2Requests[memsys.PVWriteback],
		offchipReads: res.Mem.OffChipReads[memsys.ClassApp] + res.Mem.OffChipReads[memsys.ClassPV],
		pvLookups:    pt.Lookups,
		pvHits:       pt.Hits,
		pvFetches:    pt.Fetches,
		pvWritebacks: pt.Writebacks,
		mshrStalls:   pt.MSHRStalls,
		issued:       res.PrefetchIssued(),
		unused:       res.PrefetchUnused(),
		cpaSum:       res.Cost.CPA(),
		cpaN:         1,
		planned:      1,
		executed:     1,
	}
	// The output is the counters the run reports, named one by one, so
	// fields added to the program's or the harness's structs later do not
	// move the pinned digest.
	r.digest = sha256.Sum256(fmt.Appendf(nil, "reads %d misses %d l2 %v offchip %v pvproxy %d %d %d %d %d prefetch %d %d cycles %d",
		res.L1DReads(), res.L1DReadMisses(), res.Mem.L2Requests, res.Mem.OffChipReads,
		pt.Lookups, pt.Hits, pt.Fetches, pt.Writebacks, pt.MSHRStalls,
		res.PrefetchIssued(), res.PrefetchUnused(), res.Cost.ElapsedCycles()))
	return r
}

func (d *pv8Stack) close() error { return nil }

// sweep-timing: one caller running cold timing sweeps of dedicated
// predictors at -p nproc, the `pvsim sweep -timing` path.

type sweepStack struct {
	env
	parallel int
	perSim   uint64 // accesses per simulation
}

func (d *sweepStack) grid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Specs:     []string{"1K-11a", "16-11a", "stride-1K"},
		Workloads: []string{"Apache", "DB2", "Oracle", "Qry1"},
		Seeds:     []uint64{seed},
		Scale:     d.scale(0.25),
		Timing:    true,
	}
}

func startSweepTiming(e env) (stack, error) {
	d := &sweepStack{env: e, parallel: runtime.NumCPU()}
	g := d.grid(e.warmSeed(0))
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	d.perSim = simAccesses(jobs[0].Config)
	// One untimed cold sweep of a one-job slice of the grid.
	g.Specs, g.Workloads = g.Specs[:1], g.Workloads[:1]
	if _, err := sweep.New(sweep.Options{Parallel: d.parallel}).Run(context.Background(), g, nil); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *sweepStack) op(i int) opResult {
	g := d.grid(d.seed + uint64(i))
	root := d.rec.Begin("op", i, -1)
	defer d.rec.End(root)
	r := opResult{source: i}

	t0 := time.Now()
	plan, err := g.Plan()
	if err != nil {
		r.err = err
		return r
	}
	tPlan := time.Now()
	// The engine runs every baseline before any job, so the progress count
	// passing the baseline total marks the boundary between the waves.
	// Calls are serialized, and all happen before Run returns.
	baselines := plan.TotalSims - plan.Jobs
	waveEnd, sims := tPlan, 0
	progress := func(done, total int) {
		sims = done
		if done == baselines {
			waveEnd = time.Now()
		}
	}
	res, err := sweep.New(sweep.Options{Parallel: d.parallel}).Run(context.Background(), g, progress)
	tRun := time.Now()
	if err != nil {
		r.err = err
		return r
	}
	out, err := res.JSON()
	tEnd := time.Now()
	if err != nil {
		r.err = err
		return r
	}
	d.rec.Add("sweep.plan", i, root, t0, tPlan)
	d.rec.Add("sweep.baseline_wave", i, root, tPlan, waveEnd)
	d.rec.Add("sweep.job_wave", i, root, waveEnd, tRun)
	d.rec.Add("sweep.encode", i, root, tRun, tEnd)

	r.lat = tEnd.Sub(t0)
	r.accesses = uint64(plan.TotalSims) * d.perSim
	r.digest = sha256.Sum256(out)
	if len(res.Rows) != plan.Jobs {
		r.err = fmt.Errorf("%d rows, planned %d", len(res.Rows), plan.Jobs)
		return r
	}
	r.counts = counts{accesses: r.accesses, planned: uint64(plan.TotalSims), executed: uint64(sims)}
	for j, row := range res.Rows {
		if row.Job != j || row.Reads == 0 || row.IPC <= 0 || row.Speedup <= 0 {
			r.err = fmt.Errorf("row %d is incomplete: %+v", j, row)
			return r
		}
		r.counts.addRow(row)
	}
	return r
}

func (d *sweepStack) close() error { return nil }
