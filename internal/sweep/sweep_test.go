package sweep

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"pvsim/pv"

	_ "pvsim/pv/predictors" // register the built-in predictor families
)

// testScale keeps sweep tests fast (the 1000-access floor) while still
// running warmup + measurement end to end.
const testScale = 0.0025

// testGrid exercises every grid dimension: two workloads plus two mixes
// (one heterogeneous, one phased with phase lengths inside the test-scale
// budget), a dedicated and a virtualized spec plus the baseline, two
// PVCache sizes (multiplying only the virtualized spec), and two seeds.
// TestSweepParallelDeterminism runs it at -p 1 vs -p 8, which is the
// acceptance matrix: >= 2 mixes x 2 PVCache sizes, byte-identical.
func testGrid() Grid {
	return Grid{
		Specs:     []string{"none", "16-11a", "PV-8"},
		Workloads: []string{"Apache", "Qry1"},
		Mixes:     []string{"oltp-web", "DB2@500+Apache@500"},
		PVCache:   []int{4, 8},
		Seeds:     []uint64{42, 7},
		Scale:     testScale,
	}
}

func TestGridExpansion(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Per (seed, scenario): none=1, 16-11a=1, PV-8=2 (pvcache 4 and 8);
	// scenarios are two workloads plus two mixes.
	want := 2 * (2 + 2) * (1 + 1 + 2)
	if len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
	}
	// Expansion is seed-major: all of seed 42 precedes all of seed 7; and
	// within a seed, workloads precede mixes.
	if jobs[0].Seed != 42 || jobs[len(jobs)-1].Seed != 7 {
		t.Errorf("expansion order not seed-major: first=%d last=%d", jobs[0].Seed, jobs[len(jobs)-1].Seed)
	}
	if jobs[0].Scenario != "Apache" || jobs[0].Mix != "" {
		t.Errorf("first job is %q (mix %q), want the Apache workload", jobs[0].Scenario, jobs[0].Mix)
	}
	if last := jobs[len(jobs)-1]; last.Mix != "DB2@500+Apache@500" || last.Workload.Name != "" {
		t.Errorf("last job is %+v, want the phased mix with a zero Workload", last)
	}
	// The PVCache dimension applies to the virtualized spec only.
	for _, j := range jobs {
		switch j.SpecName {
		case "PV-8":
			if j.PVCache != 4 && j.PVCache != 8 {
				t.Errorf("PV-8 job has PVCache %d", j.PVCache)
			}
		case "none", "16-11a":
			if j.Config.Prefetch.Mode == pv.Virtualized {
				t.Errorf("%s job became virtualized", j.SpecName)
			}
		}
	}
}

func TestGridValidate(t *testing.T) {
	for _, bad := range []Grid{
		{},                                // no specs
		{Specs: []string{"no-such-spec"}}, // unknown spec
		{Specs: []string{"PV-8"}, Workloads: []string{"NoSuchWorkload"}},
		{Specs: []string{"PV-8"}, PVCache: []int{0}},
		{Specs: []string{"PV-8"}, Mixes: []string{"no-such-mix"}},
		{Specs: []string{"PV-8"}, Mixes: []string{"DB2@0+Apache"}},
		{Specs: []string{"PV-8"}, Mixes: []string{""}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("grid %+v validated", bad)
		}
	}
	if err := (Grid{Specs: []string{"PV-8"}}).Validate(); err != nil {
		t.Errorf("minimal grid rejected: %v", err)
	}
	if err := (Grid{Specs: []string{"PV-8"}, Mixes: []string{"oltp-web"}}).Validate(); err != nil {
		t.Errorf("mixes-only grid rejected: %v", err)
	}
	// A mix that parses but cannot be sized onto the system errors at job
	// expansion, before any simulation.
	if _, err := (Grid{Specs: []string{"PV-8"}, Mixes: []string{"DB2/Apache"}, Scale: testScale}).Jobs(); err == nil {
		t.Error("two-core mix expanded onto a four-core system")
	}
}

// TestGridValidateBound pins the expansion bound: a grid whose axes
// could expand past MaxJobs fails Validate before anything is expanded,
// and a grid exactly at the bound still validates.
func TestGridValidateBound(t *testing.T) {
	seeds := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	pvcache := make([]int, MaxJobs+1)
	for i := range pvcache {
		pvcache[i] = 8
	}
	before := JobExpansions()
	at := Grid{Specs: []string{"none"}, Workloads: []string{"Apache"}, Seeds: seeds(MaxJobs)}
	if err := at.Validate(); err != nil {
		t.Errorf("grid of exactly %d jobs rejected: %v", MaxJobs, err)
	}
	for _, g := range []Grid{
		{Specs: []string{"none"}, Workloads: []string{"Apache"}, Seeds: seeds(MaxJobs + 1)},
		{Specs: []string{"none"}, Seeds: seeds(100_000)}, // all eight workloads
		{Specs: []string{"PV-8"}, Workloads: []string{"Apache"}, PVCache: pvcache, Seeds: seeds(1)},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("grid of %d seeds x %d specs x %d pvcache sizes validated", len(g.Seeds), len(g.Specs), len(g.PVCache))
		}
	}
	if got := JobExpansions() - before; got != 0 {
		t.Errorf("Validate expanded %d grids", got)
	}
}

func TestGridHash(t *testing.T) {
	a, b := testGrid(), testGrid()
	if a.Hash() != b.Hash() {
		t.Error("equal grids hash differently")
	}
	b.Seeds = []uint64{42}
	if a.Hash() == b.Hash() {
		t.Error("different grids collide")
	}
	// Defaults are part of the normalized identity: an explicit default
	// equals an omitted one.
	c := Grid{Specs: []string{"PV-8"}, Seeds: []uint64{42}, Scale: 1.0}
	d := Grid{Specs: []string{"PV-8"}}
	if c.Hash() != d.Hash() {
		t.Error("normalized grid and explicit-defaults grid hash differently")
	}
	// The mix axis and the flush switch are both part of the identity.
	e := Grid{Specs: []string{"PV-8"}, Mixes: []string{"ctx-switch"}}
	if e.Hash() == d.Hash() {
		t.Error("mix axis not part of the grid hash")
	}
	f := e
	f.PhaseFlush = true
	if e.Hash() == f.Hash() {
		t.Error("PhaseFlush not part of the grid hash")
	}
	// Grid hashes key the service's dedup and its on-disk results, so a
	// grid must keep its hash when Grid gains or loses an omitempty field
	// it does not set: these were captured with one more such field.
	for _, pin := range []struct {
		g    Grid
		want string
	}{
		{d, "956c1e460aff2327"},
		{testGrid(), "38bfeeb6db6cc5fc"},
	} {
		if got := pin.g.Hash(); got != pin.want {
			t.Errorf("grid %+v hashes to %s, want %s", pin.g, got, pin.want)
		}
	}
}

// TestSweepHomogeneousMixMatchesWorkload is the sweep-level face of the
// bit-identity acceptance criterion: the same workload run as a plain
// scenario and as a four-core homogeneous mix must produce numerically
// identical rows (labels and config hashes legitimately differ — the mix
// config carries per-core assignments).
func TestSweepHomogeneousMixMatchesWorkload(t *testing.T) {
	g := Grid{
		Specs:     []string{"16-11a", "PV-8"},
		Workloads: []string{"Apache"},
		Mixes:     []string{"Apache/Apache/Apache/Apache"},
		Seeds:     []uint64{42},
		Scale:     testScale,
	}
	res, err := New(Options{Parallel: 4}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(res.Rows))
	}
	for i := 0; i < 2; i++ {
		w, m := res.Rows[i], res.Rows[i+2]
		if w.Workload != "Apache" || m.Workload != "Apache/Apache/Apache/Apache" {
			t.Fatalf("row pairing broken: %q vs %q", w.Workload, m.Workload)
		}
		w.Job, m.Job = 0, 0
		w.Workload, m.Workload = "", ""
		w.Config, m.Config = "", ""
		if w != m {
			t.Errorf("spec %s: homogeneous mix row diverges from workload row:\nworkload: %+v\nmix:      %+v",
				res.Rows[i].Spec, w, m)
		}
	}
}

// TestSweepMixesOnlyGrid: naming mixes without workloads must not pull in
// the all-eight workload default.
func TestSweepMixesOnlyGrid(t *testing.T) {
	g := Grid{Specs: []string{"16-11a"}, Mixes: []string{"oltp-web"}, Scale: testScale}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("mixes-only grid expanded %d jobs, want 1", len(jobs))
	}
	if jobs[0].Scenario != "oltp-web" || jobs[0].Mix != "oltp-web" {
		t.Fatalf("job is %+v, want the oltp-web mix", jobs[0])
	}
}

// TestSweepParallelDeterminism is the engine's headline guarantee and this
// PR's focal test: the same grid at Parallel=1 and Parallel=8 must produce
// byte-identical results — the structured JSON and every rendered form.
// It runs at full strength under -short too, so the CI -race job always
// exercises the scheduler against the determinism contract.
func TestSweepParallelDeterminism(t *testing.T) {
	g := testGrid()
	run := func(parallel int) *Result {
		res, err := New(Options{Parallel: parallel}).Run(context.Background(), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)

	js, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jp, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jp) {
		t.Fatalf("Parallel=8 JSON differs from Parallel=1:\n--- serial ---\n%s\n--- parallel ---\n%s", js, jp)
	}
	if st, pt := serial.Doc().Text(), parallel.Doc().Text(); st != pt {
		t.Fatalf("Parallel=8 text differs from Parallel=1:\n--- serial ---\n%s\n--- parallel ---\n%s", st, pt)
	}

	// And the merge really is in job order, not completion order.
	for i, row := range parallel.Rows {
		if row.Job != i {
			t.Fatalf("row %d carries job %d; merged in completion order?", i, row.Job)
		}
	}
}

// TestSweepTimingParallelDeterminism repeats the guarantee for a timing
// grid (windowed IPC collection has its own buffers to get wrong).
func TestSweepTimingParallelDeterminism(t *testing.T) {
	g := Grid{
		Specs:     []string{"16-11a", "PV-8"},
		Workloads: []string{"Apache"},
		Seeds:     []uint64{42},
		Scale:     testScale,
		Timing:    true,
	}
	run := func(parallel int) string {
		res, err := New(Options{Parallel: parallel}).Run(context.Background(), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := run(1), run(8); a != b {
		t.Fatalf("timing sweep diverges across parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestSweepCostParallelDeterminism repeats the byte-identity guarantee
// for a cost-model grid across PVCache sizes and a mix: the timing fold
// is deterministic per job, and merging in expansion order keeps the
// Cycles/CPA/SpdProxy columns byte-identical at any parallelism.
func TestSweepCostParallelDeterminism(t *testing.T) {
	g := Grid{
		Specs:     []string{"1K-11a", "PV-8"},
		Workloads: []string{"Apache"},
		Mixes:     []string{"oltp-web"},
		PVCache:   []int{4, 16},
		Seeds:     []uint64{42},
		Scale:     testScale,
		Cost:      true,
	}
	run := func(parallel int) string {
		res, err := New(Options{Parallel: parallel}).Run(context.Background(), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("cost sweep diverges across parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if !strings.Contains(a, "\"cycles\"") || !strings.Contains(a, "\"speedup_proxy\"") {
		t.Fatalf("cost grid rows lack cycle columns:\n%s", a)
	}

	// The cost axis must not move a single coverage byte: the same grid
	// without Cost renders identical coverage columns.
	plain := g
	plain.Cost = false
	pres, err := New(Options{Parallel: 4}).Run(context.Background(), plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := New(Options{Parallel: 4}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pres.Rows {
		pr, cr := pres.Rows[i], cres.Rows[i]
		cr.Cycles, cr.CPA, cr.SpeedupProxy = 0, 0, 0
		cr.Config = pr.Config // differs by design: the cost axis is part of the config hash
		if pr != cr {
			t.Fatalf("row %d coverage moved under the cost axis:\nplain: %+v\ncost:  %+v", i, pr, cr)
		}
	}
}

// TestSweepSeedZero runs a seed-0 grid end to end: the seed-0 bugfix must
// hold through the sweep layer (seed 0 rows differ from seed 42 rows).
func TestSweepSeedZero(t *testing.T) {
	g := Grid{Specs: []string{"16-11a"}, Workloads: []string{"Apache"}, Seeds: []uint64{0, 42}, Scale: testScale}
	res, err := New(Options{Parallel: 2}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	if res.Rows[0].Misses == res.Rows[1].Misses && res.Rows[0].Covered == res.Rows[1].Covered {
		t.Error("seed 0 and seed 42 rows are identical; seed 0 is being rewritten again")
	}
}

func TestSweepProgress(t *testing.T) {
	g := Grid{Specs: []string{"none", "16-11a"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
	var mu sync.Mutex
	var dones []int
	total := 0
	_, err := New(Options{Parallel: 4}).Run(context.Background(), g, func(d, tot int) {
		mu.Lock()
		dones = append(dones, d)
		total = tot
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 jobs + 1 baseline for the (42, Apache) cell.
	if total != 3 {
		t.Errorf("progress total = %d, want 3", total)
	}
	if len(dones) != total {
		t.Errorf("progress called %d times, want %d", len(dones), total)
	}
	// Calls are serialized under the engine's progress lock, so done
	// arrives strictly ascending: 1, 2, ..., total.
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("progress done values %v: want 1..%d in order", dones, total)
			break
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(Options{Parallel: 2}).Run(ctx, testGrid(), nil)
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run published a result with %d rows", len(res.Rows))
	}
}

// TestSweepCancelledDispatchesNothing pins the cancellation fix: with the
// context cancelled before Run, the feeder's priority check must stop
// dispatch before a single job runs — no progress publication, no cached
// result, no partial row. Before the fix the feeder's select could keep
// picking its send branch against a closed Done channel, so a "cancelled"
// sweep still simulated (and published progress for) a random prefix of
// its jobs.
func TestSweepCancelledDispatchesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Options{Parallel: 4})
	calls := 0
	res, err := e.Run(ctx, testGrid(), func(done, total int) { calls++ })
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run published a result")
	}
	if calls != 0 {
		t.Errorf("cancelled run published %d progress updates, want 0", calls)
	}
	if got := e.RetainedSystems(); got != 0 {
		t.Errorf("cancelled run retained %d systems before simulating anything", got)
	}
}

// TestSweepCancelledEngineReusable pins that cancellation leaves the
// engine — including its LRU system pool — fully usable: a cancelled run
// followed by an uncancelled run of the same grid must be byte-identical
// to a fresh serial run.
func TestSweepCancelledEngineReusable(t *testing.T) {
	g := Grid{Specs: []string{"none", "16-11a", "PV-8"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
	want, err := New(Options{Parallel: 1}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{Parallel: 2, MaxSystems: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, g, nil); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	res, err := e.Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("post-cancellation re-run diverges from serial:\n--- want ---\n%s\n--- got ---\n%s", wantJSON, got)
	}
	if n := e.RetainedSystems(); n > 2 {
		t.Errorf("pool retains %d systems after cancellation + re-run, bound is 2", n)
	}
}

// TestSweepPoolBounded pins the MaxSystems eviction: a grid with more
// distinct configurations than the pool bound must not retain more systems
// than the bound.
func TestSweepPoolBounded(t *testing.T) {
	e := New(Options{Parallel: 2, MaxSystems: 2})
	res, err := e.Run(context.Background(), testGrid(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs <= 2 {
		t.Fatalf("grid too small to exercise eviction: %d jobs", res.Jobs)
	}
	if got := e.RetainedSystems(); got > 2 {
		t.Errorf("pool retains %d systems, bound is 2", got)
	}
}

// TestSweepRerunIdentical pins the pooled re-run path: Reset clears cached
// results but keeps systems, and the re-executed sweep must be
// byte-identical (Reset system reuse cannot perturb results).
func TestSweepRerunIdentical(t *testing.T) {
	e := New(Options{Parallel: 2})
	g := Grid{Specs: []string{"16-11a", "PV-8"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
	first, err := e.Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	second, err := e.Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := first.JSON()
	b, _ := second.JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("pooled re-run diverges:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestSweepCompileByteIdentical pins the compiled-trace pipeline at the
// sweep level: the full test grid — workloads, mixes, a phased mix, every
// spec — run under Options.Compile must render byte-identical JSON to the
// generator-path run at Parallel=1, at Parallel=2 and Parallel=8.
func TestSweepCompileByteIdentical(t *testing.T) {
	g := testGrid()
	run := func(o Options) []byte {
		t.Helper()
		res, err := New(o).Run(context.Background(), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := run(Options{Parallel: 1})
	for _, o := range []Options{
		{Parallel: 2, Compile: true},
		{Parallel: 8, Compile: true},
	} {
		if got := run(o); !bytes.Equal(want, got) {
			t.Fatalf("compiled sweep (%+v) diverges from generator sweep:\n%d vs %d bytes", o, len(want), len(got))
		}
	}
}
